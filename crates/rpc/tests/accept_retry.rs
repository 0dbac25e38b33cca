//! The acceptor keeps draining its backlog after a transient accept error.
//!
//! Each daemon runs under a 48-descriptor limit (`ulimit -n` in a `sh`
//! wrapper).  Parking 80 connections exhausts it: `accept` fails with
//! `EMFILE` while the remaining connections wait in the listen backlog.
//! Closing 60 of them frees descriptors, but the edge-triggered listener
//! reports no new readiness for connections that were already queued.
//! Every surviving connection must still be answered: the acceptor retries
//! after its back-off instead of blocking until some new client connects.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use shadowfax_rpc::codec::{encode_frame, FrameDecoder, WireMsg};
use shadowfax_rpc::MAX_FRAME_BYTES;

/// The daemon's descriptor limit; it needs about ten for itself.
const FD_LIMIT: u32 = 48;
/// Connections opened: well past what the limit lets the daemon accept.
const PARKED: usize = 80;
/// Connections closed again before the survivors are pinged.
const CLOSED: usize = 60;
/// How long a surviving connection may take to answer its ping.
const PONG_BUDGET: Duration = Duration::from_secs(3);

/// A daemon process under the descriptor limit, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &str, args: &[&str]) -> Daemon {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -n {FD_LIMIT} && exec \"$0\" \"$@\""))
            .arg(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon under sh");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("daemon stdout piped"))
            .read_line(&mut banner)
            .expect("read daemon banner");
        let addr = banner
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {banner:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends a ping on `conn` and waits up to [`PONG_BUDGET`] for its pong.
fn ping(conn: &mut TcpStream, token: u64) -> Result<(), String> {
    conn.write_all(&encode_frame(&WireMsg::Ping(token)))
        .map_err(|e| format!("write ping: {e}"))?;
    let deadline = Instant::now() + PONG_BUDGET;
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut chunk = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!("no pong within {PONG_BUDGET:?}"));
        }
        conn.set_read_timeout(Some(left)).expect("set read timeout");
        match conn.read(&mut chunk) {
            Ok(0) => return Err("connection closed before the pong".into()),
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(format!("no pong within {PONG_BUDGET:?}"))
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        match decoder.next_msg() {
            Ok(Some(WireMsg::Pong(t))) if t == token => return Ok(()),
            Ok(Some(other)) => return Err(format!("unexpected reply {other:?}")),
            Ok(None) => {}
            Err(e) => return Err(format!("decode: {e}")),
        }
    }
}

fn backlog_survives_fd_exhaustion(daemon: Daemon) {
    let mut conns: Vec<TcpStream> = (0..PARKED)
        .map(|i| TcpStream::connect(&daemon.addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // The pauses only decide whether an acceptor that blocks after an
    // accept error is caught: it must have hit the descriptor limit before
    // the close, and the I/O threads must have released descriptors before
    // the pings.  A retrying acceptor passes under any interleaving.
    std::thread::sleep(Duration::from_millis(500));
    conns.drain(..CLOSED);
    std::thread::sleep(Duration::from_millis(200));
    for (i, conn) in conns.iter_mut().enumerate().rev() {
        let n = CLOSED + i + 1;
        if let Err(e) = ping(conn, n as u64) {
            panic!("connection {n} of {PARKED} was never served: {e}");
        }
    }
}

#[test]
fn server_accepts_its_backlog_after_fd_exhaustion() {
    backlog_survives_fd_exhaustion(Daemon::spawn(
        env!("CARGO_BIN_EXE_shadowfax-server"),
        &["--servers", "1", "--threads", "1"],
    ));
}

#[test]
fn tier_accepts_its_backlog_after_fd_exhaustion() {
    backlog_survives_fd_exhaustion(Daemon::spawn(env!("CARGO_BIN_EXE_shadowfax-tier"), &[]));
}
