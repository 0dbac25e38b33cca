//! `shadowfax-server` processes: spawn, liveness, teardown, and the
//! per-thread CPU and peak RSS the kernel reports for them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a server may take to print its `LISTENING` banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(20);

/// One running server process.  Killed and reaped on drop, so every exit
/// path of the benchmark (panics included) tears it down.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    panicked: Arc<AtomicBool>,
    readers: Vec<JoinHandle<()>>,
}

impl ServerProc {
    fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let mut readers = Vec::new();
        readers.push(std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("LISTENING ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        }));
        // Stderr goes to a log file; a `panicked` line anywhere in it ends
        // the run (a panicking dispatch thread leaves the process listening).
        let panicked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&panicked);
        let mut log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        readers.push(std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("panicked") {
                    flag.store(true, Ordering::SeqCst);
                }
                let _ = writeln!(log_file, "{line}");
            }
        }));
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            panicked,
            readers,
        };
        proc.addr = rx.recv_timeout(BANNER_TIMEOUT).map_err(|_| {
            format!(
                "server gave no LISTENING banner within {BANNER_TIMEOUT:?} (see {})",
                log.display()
            )
        })?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn check(&mut self) -> Result<(), String> {
        if self.panicked.load(Ordering::SeqCst) {
            return Err(format!("server {} panicked", self.addr));
        }
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server {} exited: {status}", self.addr)),
            Err(e) => Err(format!("server {} cannot be waited on: {e}", self.addr)),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// The server processes of one set-up.
pub struct Cluster {
    pub procs: Vec<ServerProc>,
}

impl Cluster {
    /// Starts `n` single-server processes (one dispatch thread, one I/O
    /// thread each).  With `n > 1` they form one scale-out cluster: process
    /// `i` hosts global server `i`, server 0 owns the whole hash space, and
    /// every process registers the others as peers.
    pub fn spawn(
        bin: &Path,
        n: usize,
        memory_pages: Option<u64>,
        log_dir: &Path,
    ) -> Result<Cluster, String> {
        // Peers must know each other's ports up front; a lone server picks
        // its own.
        let ports = match n {
            1 => vec![0],
            _ => (0..n).map(|_| free_port()).collect::<Result<Vec<_>, _>>()?,
        };
        let mut procs = Vec::with_capacity(n);
        for (i, port) in ports.iter().enumerate() {
            let mut args: Vec<String> = [
                "--listen",
                &format!("127.0.0.1:{port}"),
                "--servers",
                "1",
                "--threads",
                "1",
                "--io-threads",
                "1",
                "--base-id",
                &i.to_string(),
                "--metrics-log-secs",
                "0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if let Some(pages) = memory_pages {
                args.extend(["--memory-pages".to_string(), pages.to_string()]);
            }
            for (j, port) in ports.iter().enumerate().filter(|(j, _)| *j != i) {
                args.push("--peer".into());
                args.push(format!("id={j},addr=127.0.0.1:{port},threads=1"));
            }
            let log: PathBuf = log_dir.join(format!("server-{i}.log"));
            procs.push(ServerProc::spawn(bin, &args, &log)?);
        }
        Ok(Cluster { procs })
    }

    /// The liveness guard: every server is running and none has panicked.
    pub fn check(&mut self) -> Result<(), String> {
        self.procs.iter_mut().try_for_each(ServerProc::check)
    }

    pub fn cpu(&self) -> Result<CpuSample, String> {
        let mut total = CpuSample::default();
        for p in &self.procs {
            total.add(&cpu_sample(p.pid())?);
        }
        Ok(total)
    }

    /// Peak resident set (VmHWM) summed over the processes, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0u64;
        for p in &self.procs {
            let path = format!("/proc/{}/status", p.pid());
            let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            kb += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| format!("no VmHWM in {path}"))?;
        }
        Ok(kb as f64 / 1024.0)
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

/// CPU time in clock ticks, split by the server's thread names.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuSample {
    /// Reactor I/O threads (`shadowfax-rpc-io-*`).
    pub io_ticks: u64,
    pub io_threads: u64,
    /// Dispatch threads (`sv<id>-t<n>`).
    pub dispatch_ticks: u64,
    pub dispatch_threads: u64,
    /// Every thread of the process, exited ones included.
    pub total_ticks: u64,
}

impl CpuSample {
    fn add(&mut self, o: &CpuSample) {
        self.io_ticks += o.io_ticks;
        self.io_threads += o.io_threads;
        self.dispatch_ticks += o.dispatch_ticks;
        self.dispatch_threads += o.dispatch_threads;
        self.total_ticks += o.total_ticks;
    }
}

/// `(comm, utime + stime)` from a `/proc/.../stat` line.
fn parse_stat(stat: &str) -> Option<(&str, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = &stat[open + 1..close];
    // Fields after the comm start at field 3 (state); utime and stime are
    // fields 14 and 15.
    let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

fn cpu_sample(pid: u32) -> Result<CpuSample, String> {
    let read = |path: String| std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"));
    let mut s = CpuSample::default();
    let stat = read(format!("/proc/{pid}/stat"))?;
    s.total_ticks = parse_stat(&stat).ok_or("unparsable process stat")?.1;
    let dir = format!("/proc/{pid}/task");
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        // A thread may exit between listing and reading.
        let Ok(stat) = read(format!("{}/stat", entry.path().display())) else {
            continue;
        };
        let Some((comm, ticks)) = parse_stat(&stat) else {
            continue;
        };
        // Thread names are truncated to 15 bytes by the kernel.
        if comm.starts_with("shadowfax-rpc-i") {
            s.io_ticks += ticks;
            s.io_threads += 1;
        } else if is_dispatch_thread(comm) {
            s.dispatch_ticks += ticks;
            s.dispatch_threads += 1;
        }
    }
    Ok(s)
}

fn is_dispatch_thread(comm: &str) -> bool {
    let Some((server, thread)) = comm.split_once("-t") else {
        return false;
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    server.strip_prefix("sv").is_some_and(digits) && digits(thread)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU mask of 1024 CPUs, the size glibc's `cpu_set_t` uses.
type CpuMask = [u64; 16];

/// The first two CPUs the process was allowed to run on when first asked:
/// one for the server process, one for the client thread.
pub fn two_cpus() -> Result<(usize, usize), String> {
    static CPUS: std::sync::OnceLock<Result<(usize, usize), String>> = std::sync::OnceLock::new();
    CPUS.get_or_init(allowed_pair).clone()
}

fn allowed_pair() -> Result<(usize, usize), String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes to `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let mut cpus = (0..mask.len() * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0);
    match (cpus.next(), cpus.next()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err("two CPUs are needed to place server and client apart".into()),
    }
}

/// Restricts the calling thread, and the threads and processes it starts
/// from now on, to `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is out of range"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Clock ticks per second of `/proc` CPU times.
pub fn clock_ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and touches no caller memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_with_spaces_in_comm() {
        let line = "42 (sv0-t0) R 1 2 3 4 5 6 7 8 9 10 30 12 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("sv0-t0", 42)));
        let odd = "7 (a b) c) S 1 2 3 4 5 6 7 8 9 10 1 2 0";
        assert_eq!(parse_stat(odd), Some(("a b) c", 3)));
    }

    #[test]
    fn dispatch_threads_are_recognised_by_name() {
        assert!(is_dispatch_thread("sv0-t0"));
        assert!(is_dispatch_thread("sv12-t3"));
        assert!(!is_dispatch_thread("shadowfax-rpc-i"));
        assert!(!is_dispatch_thread("sv-t1"));
    }
}
