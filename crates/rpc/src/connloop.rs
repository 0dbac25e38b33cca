//! The connection loop both daemons serve on.
//!
//! `shadowfax-server` ([`RpcServer`](crate::RpcServer)) and
//! `shadowfax-tier` ([`TierDaemon`](crate::TierDaemon)) speak the same
//! length-prefixed codec over the same kind of sockets, so they share one
//! serving mechanism and differ only in a per-connection [`Handler`]:
//!
//! * an **acceptor** thread blocks on listener readiness, accepts until
//!   `WouldBlock` (the listener is edge-triggered), and hands each
//!   connection round-robin to an I/O thread, waking its reactor.  After
//!   a transient accept error (`EMFILE` under fd pressure, an aborted
//!   handshake) it retries every [`ACCEPT_RETRY`] until `accept` reaches
//!   `WouldBlock`: connections already queued in the backlog produce no
//!   new readiness edge, so blocking instead would strand them until some
//!   unrelated client connects;
//! * each **I/O thread** runs an epoll [`Reactor`] over a
//!   generation-tokened connection slab and an explicit active list, so a
//!   pass costs O(active) rather than O(connections) and a thread whose
//!   connections are all quiet blocks in `epoll_wait` — idle connections
//!   cost no CPU;
//! * input is bounded per service pass ([`DRAIN_CHUNKS_PER_PASS`],
//!   [`FRAMES_PER_PASS`], [`INPUT_BACKLOG_BYTES`]) so one firehose
//!   connection round-robins with its siblings;
//! * replies queue into a bounded per-connection [`Outbound`] buffer,
//!   flushed opportunistically and on write-readiness; a peer that stops
//!   reading is dropped at [`OUTBOUND_BUDGET_BYTES`] without stalling the
//!   thread;
//! * a codec error (or a handler's [`Outbound::fail`]) queues a typed
//!   `CtrlErr`, stops reading, and closes once that reply is flushed;
//! * connection accounting lands in `<ns>.conns.*`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use shadowfax_net::{Interest, Reactor, StatusCode, Token};
use shadowfax_obs::{Counter, Gauge, MetricsRegistry};

use crate::codec::{encode_frame, FrameDecoder, WireMsg, MAX_FRAME_BYTES};

/// Outbound-buffer budget per connection.  A reply queue growing past
/// this means the client has stopped reading (the kernel socket buffer is
/// already full underneath it): the connection is dropped and counted in
/// `<ns>.conns.dropped_slow_reader`.  Must exceed [`MAX_FRAME_BYTES`] so
/// one maximum-size reply can always be queued.
pub const OUTBOUND_BUDGET_BYTES: usize = 2 * MAX_FRAME_BYTES;

/// Most 64 KiB read chunks one connection may drain per service pass.
/// Bounds how long a single firehose connection can hold the I/O thread
/// inside `drain_socket`; `read_pending` carries the rest to the next
/// pass.
const DRAIN_CHUNKS_PER_PASS: usize = 8;

/// Most frames one connection may have handled per service pass.  A
/// connection that buffers thousands of tiny requests (a metrics
/// flooder, say) would otherwise monopolize the thread for the whole
/// backlog while siblings wait; `frames_pending` keeps it on the active
/// list so the backlog drains round-robin instead.
const FRAMES_PER_PASS: usize = 256;

/// Decoder-backlog ceiling: stop reading a socket whose buffered input
/// already exceeds this *and* holds at least one decodable frame.  Flow
/// control then happens in the kernel (the peer's writes block) instead
/// of in our memory.  The decodable-frame condition matters: a single
/// legitimate frame may be far larger than this ceiling, and gating on
/// raw bytes alone would stop reading mid-frame — a frame that can then
/// never complete (the backlog *is* the partial frame), wedging the
/// connection until the peer's write budget kills it.
const INPUT_BACKLOG_BYTES: usize = 1024 * 1024;

/// How many zero-timeout polls an I/O thread spins through while traffic
/// is owed before backing off to 1ms waits.  Dispatch threads answer in
/// microseconds, so the spin usually catches the reply; the backoff
/// bounds the burn when one is genuinely slow (a disk-resident read, a
/// migration pause).
const ACTIVE_SPIN_BUDGET: u32 = 256;

/// The acceptor's back-off after a transient accept error, used as its
/// poll timeout until `accept` reaches `WouldBlock` again.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// A daemon's per-connection protocol.  The loop decodes frames and owns
/// the socket; the handler decides what each frame means.
pub(crate) trait Handler: 'static {
    /// Answers one decoded frame, queueing any reply on `out`.
    fn on_frame(&mut self, msg: WireMsg, out: &mut Outbound);

    /// Moves traffic that arrives without socket readiness (dispatch
    /// thread replies, migration messages) onto `out`.  Returns whether
    /// anything moved.
    fn pump(&mut self, _out: &mut Outbound) -> bool {
        false
    }

    /// Whether such traffic is owed, so the loop must keep polling this
    /// connection instead of waiting for socket readiness.
    fn owes_traffic(&self) -> bool {
        false
    }
}

/// Per-process connection observability (`<ns>.conns.*`), shared by the
/// acceptor and every I/O thread.  Visible via
/// `shadowfax-cli metrics --ns <ns>`.
#[derive(Clone)]
struct ConnMetrics {
    /// Connections currently open across all I/O threads.
    open: Gauge,
    /// Connections ever accepted.
    accepted: Counter,
    /// Connections dropped because the peer hung up, the transport
    /// failed, or the protocol was violated.
    dropped_dead: Counter,
    /// Connections dropped because the peer stopped reading and its
    /// outbound budget ran out.
    dropped_slow_reader: Counter,
    /// High-water mark of any single connection's outbound buffer, in
    /// bytes.
    outbuf_hwm_bytes: Gauge,
}

impl ConnMetrics {
    fn new(metrics: &MetricsRegistry, ns: &str) -> Self {
        ConnMetrics {
            open: metrics.gauge(&format!("{ns}.conns.open")),
            accepted: metrics.counter(&format!("{ns}.conns.accepted")),
            dropped_dead: metrics.counter(&format!("{ns}.conns.dropped_dead")),
            dropped_slow_reader: metrics.counter(&format!("{ns}.conns.dropped_slow_reader")),
            outbuf_hwm_bytes: metrics.gauge(&format!("{ns}.conns.outbuf_hwm_bytes")),
        }
    }

    /// Raises the outbound high-water gauge to `bytes` if it grew.
    /// Racy across threads in the way gauges are; the high-water mark is
    /// advisory, not an invariant.
    fn note_outbuf(&self, bytes: u64) {
        if bytes > self.outbuf_hwm_bytes.value() {
            self.outbuf_hwm_bytes.set(bytes);
        }
    }
}

/// The socket side of one served connection: the stream, its bounded
/// outbound buffer, and whether the connection is closing.
pub(crate) struct Outbound {
    stream: TcpStream,
    /// Bytes queued toward the socket, flushed on write-readiness.
    buf: VecDeque<u8>,
    /// Stop reading and handling input; close once `buf` is flushed.
    closing: bool,
    /// The connection is over: the transport failed or the peer ran out
    /// its outbound budget.
    dead: bool,
    /// `dead` because of the outbound budget, not a transport failure.
    slow_reader: bool,
    metrics: ConnMetrics,
}

impl Outbound {
    /// Queues `msg` and flushes what the socket takes.  A client that
    /// stops reading exhausts its budget and is dropped — without ever
    /// stalling the I/O thread.
    pub(crate) fn send(&mut self, msg: &WireMsg) {
        if self.dead {
            return;
        }
        self.buf.extend(encode_frame(msg));
        self.flush();
        self.metrics.note_outbuf(self.buf.len() as u64);
        if self.buf.len() > OUTBOUND_BUDGET_BYTES {
            self.slow_reader = true;
            self.dead = true;
        }
    }

    /// Replies with a typed error, then closes once it is flushed.
    pub(crate) fn fail(&mut self, status: StatusCode, message: String) {
        self.send(&WireMsg::CtrlErr { status, message });
        self.close();
    }

    /// Closes the connection once queued output is flushed.
    pub(crate) fn close(&mut self) {
        self.closing = true;
    }

    fn is_open(&self) -> bool {
        !self.closing && !self.dead
    }

    /// Writes buffered output until the socket would block.
    fn flush(&mut self) {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// One TCP connection being served.
struct Conn<H> {
    out: Outbound,
    decoder: FrameDecoder,
    handler: H,
    /// The peer hung up or the socket failed on read.
    eof: bool,
    /// Whether the reactor registration currently includes write
    /// interest (kept in sync with `out.buf` by the event loop).
    wants_write: bool,
    /// On the event loop's active-service list.
    in_active: bool,
    /// `drain_socket` stopped at its per-pass bound before the socket
    /// ran dry.  Edge-triggered epoll will not re-announce the leftover
    /// bytes, so the service loop must retry the drain next pass.
    read_pending: bool,
    /// `process_frames` stopped at its per-pass bound with (possibly)
    /// more complete frames still buffered; keeps the connection on the
    /// active list until the backlog is gone.
    frames_pending: bool,
}

impl<H: Handler> Conn<H> {
    /// Reads whatever the socket has without blocking, bounded per pass
    /// (`DRAIN_CHUNKS_PER_PASS` chunks, and nothing while the decoder
    /// holds over `INPUT_BACKLOG_BYTES` of already-decodable frames) so
    /// one firehose cannot hold the I/O thread.  `read_pending` records
    /// a bound being hit.
    fn drain_socket(&mut self) {
        self.read_pending = false;
        if self.eof || !self.out.is_open() {
            return;
        }
        let mut chunk = [0u8; 64 * 1024];
        let mut chunks = 0usize;
        loop {
            let over_backlog =
                self.decoder.buffered() > INPUT_BACKLOG_BYTES && self.decoder.has_complete_frame();
            if over_backlog || chunks == DRAIN_CHUNKS_PER_PASS {
                self.read_pending = true;
                return;
            }
            match self.out.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => {
                    self.decoder.extend(&chunk[..n]);
                    chunks += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    return;
                }
            }
        }
    }

    /// Decodes buffered frames and hands them to the handler, at most
    /// `FRAMES_PER_PASS` per call so a backlogged connection shares the
    /// thread fairly (`frames_pending` flags leftover work).  Returns
    /// `true` if any frame was handled.
    fn process_frames(&mut self) -> bool {
        let mut handled = 0usize;
        self.frames_pending = false;
        while self.out.is_open() {
            if handled == FRAMES_PER_PASS {
                self.frames_pending = true;
                break;
            }
            match self.decoder.next_msg() {
                Ok(Some(msg)) => {
                    handled += 1;
                    self.handler.on_frame(msg, &mut self.out);
                }
                Ok(None) => break,
                // The decoder cannot resynchronise after garbage.
                Err(e) => self.out.fail(e.status_code(), e.to_string()),
            }
        }
        handled > 0
    }

    /// One service pass: retry a bounded drain, handle frames, pump
    /// readiness-free traffic, flush.  Returns whether anything moved.
    fn service(&mut self) -> bool {
        if self.read_pending {
            // A per-pass bound stopped the last drain before the socket
            // ran dry; edge-triggered epoll will not fire again for those
            // bytes, so retry here.
            self.drain_socket();
        }
        let mut progressed = self.process_frames();
        if self.out.is_open() {
            progressed |= self.handler.pump(&mut self.out);
        }
        self.out.flush();
        progressed
    }

    /// Whether the connection is over: dead, or closing (by request or
    /// because the peer hung up and its frame backlog is handled) with
    /// nothing left to flush.  Replies still owed have nowhere to go.
    fn finished(&self) -> bool {
        self.out.dead
            || (self.out.buf.is_empty() && (self.out.closing || (self.eof && !self.frames_pending)))
    }

    /// Whether traffic can reach this connection without socket
    /// readiness: traffic the handler owes, buffered output awaiting a
    /// flush, or input the per-pass bounds deferred to the next pass.
    /// The loop keeps polling such connections; everything else sleeps
    /// until an epoll event.
    fn expects_async_traffic(&self) -> bool {
        self.handler.owes_traffic()
            || !self.out.buf.is_empty()
            || self.read_pending
            || self.frames_pending
    }
}

/// Where and how a [`ConnLoop`] serves.
pub(crate) struct LoopSpec<'a> {
    /// Socket address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: &'a str,
    /// Names the daemon: connection accounting goes to `{ns}.conns.*`,
    /// and the threads are `shadowfax-{ns}-io-{t}` and
    /// `shadowfax-{ns}-accept`.
    pub ns: &'static str,
    /// Number of I/O threads sharing the accepted connections.
    pub io_threads: usize,
    /// Per-frame size limit enforced on received frames.
    pub max_frame: usize,
}

/// A running connection loop: an acceptor plus its I/O threads.
pub(crate) struct ConnLoop {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Every reactor, woken at shutdown so blocked `epoll_wait` calls
    /// notice the flag.
    wakers: Vec<Arc<Reactor>>,
    joins: Vec<JoinHandle<()>>,
}

impl ConnLoop {
    /// Binds `spec.listen` and serves every accepted connection with a
    /// handler from `new_handler` until [`ConnLoop::stop`].
    pub(crate) fn serve<H: Handler>(
        spec: LoopSpec<'_>,
        metrics: &MetricsRegistry,
        new_handler: impl Fn() -> H + Send + Sync + 'static,
    ) -> std::io::Result<ConnLoop> {
        let listener = TcpListener::bind(spec.listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let acceptor = Arc::new(Reactor::new()?);
        acceptor.register(listener.as_raw_fd(), Token(0), Interest::READABLE)?;
        let io_reactors = (0..spec.io_threads.max(1))
            .map(|_| Reactor::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = ConnMetrics::new(metrics, spec.ns);
        let new_handler = Arc::new(new_handler);
        let mut joins = Vec::with_capacity(io_reactors.len() + 1);
        let mut senders = Vec::with_capacity(io_reactors.len());
        for (t, reactor) in io_reactors.iter().enumerate() {
            let (tx, rx) = unbounded::<TcpStream>();
            senders.push(tx);
            let io = IoThread {
                reactor: Arc::clone(reactor),
                rx,
                shutdown: Arc::clone(&shutdown),
                max_frame: spec.max_frame,
                conns: conns.clone(),
            };
            let new_handler = Arc::clone(&new_handler);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("shadowfax-{}-io-{t}", spec.ns))
                    .spawn(move || io.run(&*new_handler))
                    .expect("failed to spawn i/o thread"),
            );
        }
        {
            let acceptor = Arc::clone(&acceptor);
            let io_wakers = io_reactors.clone();
            let shutdown = Arc::clone(&shutdown);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("shadowfax-{}-accept", spec.ns))
                    .spawn(move || {
                        accept_loop(acceptor, listener, senders, io_wakers, shutdown, conns)
                    })
                    .expect("failed to spawn acceptor thread"),
            );
        }

        let mut wakers = io_reactors;
        wakers.push(acceptor);
        Ok(ConnLoop {
            local_addr,
            shutdown,
            wakers,
            joins,
        })
    }

    /// The socket address actually bound (resolves ephemeral ports).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the acceptor and I/O threads and waits for them to exit;
    /// every connection closes with them.  Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

/// Blocks on listener readiness, then accepts until `WouldBlock`
/// (edge-triggered), handing connections round-robin to the I/O threads
/// and waking the receiver's reactor.  A transient error re-polls after
/// [`ACCEPT_RETRY`] instead of waiting for a readiness edge that the
/// already-queued backlog will never produce.
fn accept_loop(
    reactor: Arc<Reactor>,
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    io_wakers: Vec<Arc<Reactor>>,
    shutdown: Arc<AtomicBool>,
    conns: ConnMetrics,
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    let mut retry = false;
    while !shutdown.load(Ordering::SeqCst) {
        let _ = reactor.poll(&mut events, retry.then_some(ACCEPT_RETRY));
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        retry = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.accepted.inc();
                    let t = next % senders.len();
                    next += 1;
                    if senders[t].send(stream).is_ok() {
                        io_wakers[t].wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE under fd pressure,
                // aborted handshakes): back off, then drain the backlog.
                Err(_) => {
                    retry = true;
                    break;
                }
            }
        }
    }
}

/// One slot of an I/O thread's connection slab.  The generation is
/// folded into the epoll token so a readiness event for a closed
/// connection can never touch the slot's next tenant.
struct ConnSlot<H> {
    gen: u32,
    conn: Option<Conn<H>>,
}

fn slot_token(idx: usize, gen: u32) -> Token {
    Token(((gen as u64) << 32) | idx as u64)
}

fn token_slot(token: Token) -> (usize, u32) {
    ((token.0 & 0xffff_ffff) as usize, (token.0 >> 32) as u32)
}

/// What one I/O thread owns.
struct IoThread {
    reactor: Arc<Reactor>,
    /// Connections handed over by the acceptor, announced by a wake.
    rx: Receiver<TcpStream>,
    shutdown: Arc<AtomicBool>,
    max_frame: usize,
    conns: ConnMetrics,
}

impl IoThread {
    /// The readiness-driven event loop.
    ///
    /// Connections register edge-triggered read interest; the loop
    /// services only connections with something to do (a readiness
    /// event, traffic owed by the handler, buffered output).  With every
    /// connection quiet the thread blocks in `epoll_wait`, so idle
    /// connections cost no CPU.
    fn run<H: Handler>(self, new_handler: &dyn Fn() -> H) {
        let reactor = &self.reactor;
        let mut slots: Vec<ConnSlot<H>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        // Indices of connections needing service this iteration.  Keeping
        // this list explicit is what makes the loop O(active), not
        // O(connections).
        let mut active: Vec<usize> = Vec::new();
        let mut events = Vec::new();
        let mut did_work = true;
        let mut idle_spins = 0u32;

        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout = if did_work {
                idle_spins = 0;
                Some(Duration::ZERO)
            } else if !active.is_empty() {
                // Traffic is owed but nothing moved: spin briefly
                // (dispatch threads answer in µs), then back off to 1ms
                // waits.
                idle_spins += 1;
                if idle_spins < ACTIVE_SPIN_BUDGET {
                    Some(Duration::ZERO)
                } else {
                    Some(Duration::from_millis(1))
                }
            } else {
                // Every connection is quiet: block until an epoll event
                // or an acceptor/shutdown wake.
                idle_spins = 0;
                None
            };
            let _ = reactor.poll(&mut events, timeout);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            did_work = false;

            // Adopt connections handed over by the acceptor.
            while let Ok(stream) = self.rx.try_recv() {
                did_work = true;
                let idx = free.pop().unwrap_or_else(|| {
                    slots.push(ConnSlot { gen: 0, conn: None });
                    slots.len() - 1
                });
                let token = slot_token(idx, slots[idx].gen);
                if reactor
                    .register(stream.as_raw_fd(), token, Interest::READABLE)
                    .is_err()
                {
                    // Registration fails only under fd exhaustion; drop
                    // the connection rather than the thread.
                    self.conns.dropped_dead.inc();
                    free.push(idx);
                    continue;
                }
                self.conns.open.add(1);
                slots[idx].conn = Some(Conn {
                    out: Outbound {
                        stream,
                        buf: VecDeque::new(),
                        closing: false,
                        dead: false,
                        slow_reader: false,
                        metrics: self.conns.clone(),
                    },
                    decoder: FrameDecoder::new(self.max_frame),
                    handler: new_handler(),
                    eof: false,
                    wants_write: false,
                    in_active: true,
                    read_pending: false,
                    frames_pending: false,
                });
                active.push(idx);
            }

            // Apply readiness transitions.
            for ev in &events {
                let (idx, gen) = token_slot(ev.token);
                let Some(slot) = slots.get_mut(idx) else {
                    continue;
                };
                if slot.gen != gen {
                    continue; // stale event for a previous tenant
                }
                let Some(conn) = slot.conn.as_mut() else {
                    continue;
                };
                if ev.readable {
                    conn.drain_socket();
                }
                if ev.writable {
                    conn.out.flush();
                }
                if ev.error {
                    conn.eof = true;
                }
                if !conn.in_active {
                    conn.in_active = true;
                    active.push(idx);
                }
            }

            // Service the active set.
            let mut i = 0;
            while i < active.len() {
                let idx = active[i];
                let gen = slots[idx].gen;
                let Some(conn) = slots[idx].conn.as_mut() else {
                    active.swap_remove(i);
                    continue;
                };
                did_work |= conn.service();
                if conn.finished() {
                    let _ = reactor.deregister(conn.out.stream.as_raw_fd());
                    self.conns.open.sub(1);
                    if conn.out.slow_reader {
                        self.conns.dropped_slow_reader.inc();
                    } else {
                        self.conns.dropped_dead.inc();
                    }
                    slots[idx].conn = None;
                    slots[idx].gen = slots[idx].gen.wrapping_add(1);
                    free.push(idx);
                    active.swap_remove(i);
                    continue;
                }
                // Keep the epoll write interest in sync with buffered
                // output.
                let want = !conn.out.buf.is_empty();
                if want != conn.wants_write {
                    conn.wants_write = want;
                    let interest = if want {
                        Interest::READABLE_WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    let fd = conn.out.stream.as_raw_fd();
                    if reactor
                        .reregister(fd, slot_token(idx, gen), interest)
                        .is_err()
                    {
                        conn.out.dead = true;
                        // Handled on the next service pass (stays active).
                        i += 1;
                        continue;
                    }
                }
                if conn.expects_async_traffic() {
                    i += 1;
                } else {
                    conn.in_active = false;
                    active.swap_remove(i);
                }
            }
        }
    }
}
