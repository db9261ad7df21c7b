//! The load generator's side of the wire: a scratch directory per run, the
//! `orfpredd` child process (always reaped), and ORFB sessions over TCP.

use orfpred_core::Alarm;
use orfpred_fleet::{read_frame, ServerFrame};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to come up or to shut down.
const DAEMON_WAIT: Duration = Duration::from_secs(60);

/// A fresh directory under `root`, removed (with its contents) on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `root/<prefix>-<pid>-<n>` for the first free `n`.
    pub fn new(root: &Path, prefix: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(root)?;
        for n in 0u32.. {
            let path = root.join(format!("{prefix}-{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(Self { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("u32 range exhausted")
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A loopback port that was free a moment ago: bind port 0, read the
/// port the kernel chose, release it for the daemon.
pub fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// A running `orfpredd` child. Dropping it kills and reaps the process,
/// so no exit path (an error return or a panic) leaves it behind.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Spawn `bin --tenant <spec> --listen 127.0.0.1:<free port>` with
    /// `dir` as its working directory. Its stdout (catch-up notes and
    /// alarms raised before the first session) goes to `dir/daemon.out`,
    /// its stderr to `dir/daemon.err`; stdin stays open as the primary
    /// input until [`Daemon::shutdown`].
    pub fn spawn(bin: &Path, spec: &str, dir: &Path) -> Result<Self, String> {
        let port = free_port().map_err(|e| format!("find a free port: {e}"))?;
        let addr = format!("127.0.0.1:{port}");
        let out = std::fs::File::create(dir.join("daemon.out")).map_err(|e| e.to_string())?;
        let err = std::fs::File::create(dir.join("daemon.err")).map_err(|e| e.to_string())?;
        let mut child = Command::new(bin)
            .args(["--tenant", spec, "--listen", &addr])
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        Ok(Self {
            child,
            stdin,
            addr,
            dir: dir.to_path_buf(),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connect to the daemon's listener, retrying until it is bound.
    pub fn connect(&mut self) -> Result<TcpStream, String> {
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    s.set_nodelay(true).map_err(|e| e.to_string())?;
                    return Ok(s);
                }
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("orfpredd exited ({status}): {}", self.stderr()));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("connect {}: {e}", self.addr));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB, read from `/proc`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// What the daemon wrote to stderr so far.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(self.dir.join("daemon.err")).unwrap_or_default()
    }

    /// Alarms the daemon wrote to stdout as JSON lines (those raised by
    /// the store catch-up, before any session existed).
    pub fn stdout_alarms(&self) -> Result<Vec<Alarm>, String> {
        let text =
            std::fs::read_to_string(self.dir.join("daemon.out")).map_err(|e| e.to_string())?;
        let mut alarms = Vec::new();
        for line in text.lines() {
            let v = serde_json::value_from_str(line).map_err(|e| format!("daemon stdout: {e}"))?;
            if serde::get_field::<String>(&v, "type").ok().as_deref() != Some("alarm") {
                continue;
            }
            let field = |name: &str| serde::get_field::<f64>(&v, name);
            let (disk, day, score) = (field("disk_id"), field("day"), field("score"));
            let (Ok(disk), Ok(day), Ok(score)) = (disk, day, score) else {
                return Err(format!("daemon stdout: malformed alarm line `{line}`"));
            };
            alarms.push(Alarm {
                disk_id: disk as u32,
                day: day as u16,
                score: score as f32,
            });
        }
        Ok(alarms)
    }

    /// Ask for a clean shutdown on the primary input and wait for the
    /// process to exit; kill it if it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"{\"type\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("orfpredd exited with {status}: {}", self.stderr()))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("orfpredd did not shut down in time".into()),
                Err(e) => return Err(format!("wait for orfpredd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Frames a session received besides the replies it waited for.
#[derive(Default)]
pub struct Inbox {
    /// `Alarm` frames, in arrival order.
    pub alarms: Vec<Alarm>,
    /// `Error` frame messages.
    pub errors: Vec<String>,
}

/// The reading half of an ORFB session.
pub struct Reader {
    inner: BufReader<TcpStream>,
}

impl Reader {
    /// Next server frame; `None` at a clean end of stream.
    pub fn frame(&mut self) -> Result<Option<ServerFrame>, String> {
        match read_frame(&mut self.inner).map_err(|e| e.to_string())? {
            None => Ok(None),
            Some((op, payload)) => ServerFrame::decode(op, &payload)
                .map(Some)
                .map_err(|e| e.to_string()),
        }
    }

    /// Read until a frame other than `Alarm` arrives and return it.
    /// Alarms on the way land in `inbox`; an `Error` frame is returned as
    /// the reply and also recorded there.
    pub fn reply(&mut self, inbox: &mut Inbox) -> Result<ServerFrame, String> {
        loop {
            match self.frame()? {
                None => return Err("daemon closed the session".into()),
                Some(ServerFrame::Alarm {
                    disk_id,
                    day,
                    score,
                }) => inbox.alarms.push(Alarm {
                    disk_id,
                    day,
                    score,
                }),
                Some(frame) => {
                    if let ServerFrame::Error { message } = &frame {
                        inbox.errors.push(message.clone());
                    }
                    return Ok(frame);
                }
            }
        }
    }
}

/// Open an ORFB session: send the magic and `Hello`, wait for `HelloAck`.
/// Returns the writing half and the reading half.
pub fn open_session(daemon: &mut Daemon, hello: &[u8]) -> Result<(TcpStream, Reader), String> {
    let mut stream = daemon.connect()?;
    let mut reader = Reader {
        inner: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
    };
    stream
        .write_all(hello)
        .map_err(|e| format!("send hello: {e}"))?;
    let mut inbox = Inbox::default();
    match reader.reply(&mut inbox)? {
        ServerFrame::HelloAck { .. } => Ok((stream, reader)),
        other => Err(format!(
            "handshake refused: {other:?} {:?} {}",
            inbox.errors,
            daemon.stderr()
        )),
    }
}

/// Encoded `Stats` request.
pub fn stats_request() -> Vec<u8> {
    let mut out = Vec::new();
    orfpred_fleet::ClientFrame::Stats.encode(&mut out);
    out
}

/// Encoded `Checkpoint` request to `path`.
pub fn checkpoint_request(path: &str) -> Vec<u8> {
    let mut out = Vec::new();
    orfpred_fleet::ClientFrame::Checkpoint {
        path: Some(path.to_string()),
    }
    .encode(&mut out);
    out
}
