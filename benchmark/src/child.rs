//! The `hoyan` child processes: one-shot `sweep` runs and the resident
//! `serve` daemon, plus the daemon's line-JSON client.
//!
//! Every child is reaped on every path: a sweep is waited for (and killed
//! on timeout) before `run_sweep` returns, and [`Daemon`]'s `Drop` asks for
//! a shutdown, then kills, so a failed check cannot leak a daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How often a child's peak resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Peak resident set (`VmHWM`, kB) of a live process; `None` once it has
/// exited (a zombie has no memory map left to report).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One finished `hoyan sweep` process.
pub struct SweepRun {
    /// Spawn → stdout drained to EOF (the process has exited): config
    /// directory to printed report.
    pub wall_s: f64,
    /// The full report.
    pub stdout: String,
    /// Exit status 0 and not timed out.
    pub ok: bool,
    /// Peak `VmHWM` seen while the process lived, kB.
    pub peak_rss_kb: u64,
}

/// Runs `hoyan sweep <dir> --k K --threads T --quiet` as a fresh process
/// with the default flags an operator gets, and waits for it.
pub fn run_sweep(
    hoyan: &Path,
    dir: &Path,
    k: u32,
    threads: usize,
    timeout: Duration,
) -> std::io::Result<SweepRun> {
    let start = Instant::now();
    let mut child = Command::new(hoyan)
        .arg("sweep")
        .arg(dir)
        .args([
            "--k",
            &k.to_string(),
            "--threads",
            &threads.to_string(),
            "--quiet",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let child = Mutex::new(child);
    let done = AtomicBool::new(false);
    let (stdout, wall_s, peak_rss_kb, timed_out) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0;
            let mut timed_out = false;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                if start.elapsed() > timeout {
                    let _ = child.lock().expect("poller is the only locker").kill();
                    timed_out = true;
                    break;
                }
                std::thread::sleep(RSS_POLL);
            }
            (peak, timed_out)
        });
        let mut stdout = String::new();
        // EOF arrives when the process exits (or is killed): the pipe's
        // write end closes with it, so this is the spawn → exit wall.
        let _ = pipe.read_to_string(&mut stdout);
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let (peak, timed_out) = poller.join().expect("rss poller panicked");
        (stdout, wall_s, peak, timed_out)
    });
    let status = child
        .into_inner()
        .expect("poller joined without panicking")
        .wait()?;
    Ok(SweepRun {
        wall_s,
        stdout,
        ok: status.success() && !timed_out,
        peak_rss_kb,
    })
}

/// A running `hoyan serve` child. Dropping it shuts the daemon down.
pub struct Daemon {
    child: Child,
    /// Drains the daemon's stdout; ends when the child exits.
    drain: Option<std::thread::JoinHandle<()>>,
    /// The resolved listen address scraped from the banner.
    pub addr: SocketAddr,
    /// Spawn → "listening on" banner: compile plus the warm sweep.
    pub bind_s: f64,
}

impl Daemon {
    /// Spawns `hoyan serve <dir> --addr 127.0.0.1:0 --workers 2 --threads T
    /// --k K --quiet` and waits for the banner.
    pub fn spawn(
        hoyan: &Path,
        dir: &Path,
        k: u32,
        threads: usize,
        timeout: Duration,
    ) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(hoyan)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args([
                "--threads",
                &threads.to_string(),
                "--k",
                &k.to_string(),
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", hoyan.display()))?;
        let pipe = child.stdout.take().expect("stdout was piped");
        // The banner read blocks, so it runs on a helper thread; the thread
        // ends at the banner or when the child (and with it the pipe) dies.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut line = String::new();
            let mut reader = BufReader::new(pipe);
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            // Keep draining so the daemon's farewell line never blocks it.
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let banner = rx.recv_timeout(timeout);
        let bind_s = start.elapsed().as_secs_f64();
        let addr = banner.ok().and_then(|line| {
            let (_, addr) = line.trim().rsplit_once("listening on ")?;
            addr.parse().ok()
        });
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                drain: Some(drain),
                addr,
                bind_s,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                Err("daemon printed no `listening on` banner".to_string())
            }
        }
    }

    /// Peak `VmHWM` of the daemon so far, kB.
    pub fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(self.child.id()).unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr, Duration::from_secs(2)) {
            let _ = c.request(r#"{"kind":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut exited = false;
        while !exited && Instant::now() < deadline {
            exited = matches!(self.child.try_wait(), Ok(Some(_)));
            if !exited {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        // The child is gone, so its stdout is at EOF and the drain ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One connection to the daemon: a request line out, a response line back.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: String,
    line: String,
}

impl Client {
    /// Connects with `TCP_NODELAY`; a reply slower than `reply_timeout`
    /// fails the request instead of hanging the benchmark.
    pub fn connect(addr: SocketAddr, reply_timeout: Duration) -> std::io::Result<Client> {
        let writer = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(reply_timeout))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            out: String::new(),
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line (borrowed
    /// until the next request).
    pub fn request(&mut self, request: &str) -> std::io::Result<&str> {
        // One write per request: with `TCP_NODELAY` a separate newline
        // would travel as its own segment.
        self.out.clear();
        self.out.push_str(request);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}
