//! The load generator: newline-JSON requests over loopback TCP, with
//! at most `nproc` threads and `nproc` connections. Requests are
//! pipelined; the server replies in order on each connection, so the
//! k-th reply on a connection answers its k-th request.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A reply that never comes within this long fails its request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Wakes servers whose event loop has stalled with replies queued.
///
/// The reactor's self-pipe can lose a wake-up: `WakePipe::drain`
/// clears its `pending` flag before reading, so a wake that lands in
/// between leaves `pending` set with the pipe empty, and every later
/// wake is skipped. The loop then flushes completed replies only when a
/// socket event arrives, and a quiet connection waits forever (a stop
/// request too). When a reply is overdue by `after`, the client opens
/// and closes a connection to every server of the topology; the accept
/// wakes each loop. Each such rescue is counted, and the wait stays in
/// the request's latency.
pub struct Nudger {
    addrs: Vec<SocketAddr>,
    after: Duration,
    count: AtomicU64,
}

impl Nudger {
    pub fn new(addrs: Vec<SocketAddr>, after: Duration) -> Arc<Nudger> {
        Arc::new(Nudger {
            addrs,
            after,
            count: AtomicU64::new(0),
        })
    }

    /// Opens and closes a connection to every server.
    fn wake_all(&self) {
        for addr in &self.addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(100));
        }
    }

    fn nudge(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.wake_all();
    }

    /// Stalls rescued so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Runs `stop` (a blocking shutdown) while waking the servers every
    /// few milliseconds, so a stalled loop still sees the stop request.
    pub fn during<T>(&self, stop: impl FnOnce() -> T) -> T {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    if !done.load(Ordering::SeqCst) {
                        self.wake_all();
                    }
                }
            });
            let out = stop();
            done.store(true, Ordering::SeqCst);
            out
        })
    }
}

/// Builds request `i`'s wire line; a pure function of `i`.
pub type MakeLine<'a> = &'a (dyn Fn(u64) -> Vec<u8> + Sync);

/// One answered request.
pub struct Reply {
    /// The request's index in the workload's sequence.
    pub index: u64,
    /// Seconds from when the request was due (open loop) or sent
    /// (closed loop) until its reply arrived.
    pub latency: f64,
    /// Seconds the generator sent the request after it was due.
    pub late: f64,
    /// The reply line, without its newline.
    pub bytes: Vec<u8>,
}

/// Connects with the options every client socket uses: reads time out
/// after the nudger's `after`, so an overdue reply can be rescued.
fn connect(addr: SocketAddr, nudger: &Nudger) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(nudger.after))?;
    Ok(stream)
}

/// The next reply line, without its newline. Nudges the servers each
/// time the reply is overdue; gives up after [`REPLY_TIMEOUT`].
fn read_reply(reader: &mut BufReader<TcpStream>, nudger: &Nudger) -> std::io::Result<Vec<u8>> {
    let started = Instant::now();
    let mut line = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) if line.last() == Some(&b'\n') => {
                line.pop();
                return Ok(line);
            }
            Ok(_) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && started.elapsed() < REPLY_TIMEOUT =>
            {
                nudger.nudge();
            }
            Err(e) => return Err(e),
        }
    }
}

/// A connected client with a buffered reader over the same socket.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    nudger: Arc<Nudger>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, nudger: &Arc<Nudger>) -> std::io::Result<Conn> {
        let stream = connect(addr, nudger)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            nudger: nudger.clone(),
        })
    }

    pub fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(line)
    }

    pub fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        read_reply(&mut self.reader, &self.nudger)
    }

    pub fn roundtrip(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.send(line)?;
        self.recv()
    }
}

/// Open loop: request `i` is due `due[i]` seconds after the start and
/// is sent then whatever is outstanding. Connection `c` carries the
/// requests `i ≡ c (mod conns)`, each with one sending and one
/// receiving thread. Replies are timed from when they were due.
pub fn open_loop(
    addr: SocketAddr,
    due: &[f64],
    make_line: MakeLine,
    conns: usize,
    nudger: &Nudger,
) -> Vec<Reply> {
    let conns = conns.max(1);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let Ok(mut writer) = connect(addr, nudger) else {
                        return Vec::new();
                    };
                    let Ok(read_half) = writer.try_clone() else {
                        return Vec::new();
                    };
                    let mut reader = BufReader::with_capacity(1 << 16, read_half);
                    let (tx, rx) = mpsc::channel::<(u64, Instant, Instant)>();
                    let receiving = scope.spawn(move || {
                        let mut replies = Vec::new();
                        while let Ok((index, due_at, sent_at)) = rx.recv() {
                            let Ok(bytes) = read_reply(&mut reader, nudger) else {
                                break;
                            };
                            replies.push(Reply {
                                index,
                                latency: due_at.elapsed().as_secs_f64(),
                                late: sent_at.saturating_duration_since(due_at).as_secs_f64(),
                                bytes,
                            });
                        }
                        replies
                    });
                    for (i, &at) in due.iter().enumerate().skip(c).step_by(conns) {
                        let due_at = start + Duration::from_secs_f64(at);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let line = make_line(i as u64);
                        let sent_at = Instant::now();
                        if tx.send((i as u64, due_at, sent_at)).is_err()
                            || writer.write_all(&line).is_err()
                        {
                            break;
                        }
                    }
                    drop(tx);
                    receiving.join().expect("receiver thread")
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    })
}

/// Closed loop: `conns` connections each keep `depth` requests in
/// flight, sending the next request index as each reply lands, until
/// `duration` has passed; then the outstanding replies drain. Returns
/// the replies (timed from their send), the seconds until the last one
/// arrived, and the number of requests sent.
pub fn closed_loop(
    addr: SocketAddr,
    make_line: MakeLine,
    conns: usize,
    depth: usize,
    duration: Duration,
    nudger: &Arc<Nudger>,
) -> (Vec<Reply>, f64, u64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let stop_at = start + duration;
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let Ok(mut conn) = Conn::connect(addr, nudger) else {
                        return replies;
                    };
                    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::new();
                    let issue = |conn: &mut Conn, inflight: &mut VecDeque<(u64, Instant)>| {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = make_line(index);
                        inflight.push_back((index, Instant::now()));
                        conn.send(&line).is_ok()
                    };
                    for _ in 0..depth.max(1) {
                        if !issue(&mut conn, &mut inflight) {
                            return replies;
                        }
                    }
                    while let Some((index, sent_at)) = inflight.pop_front() {
                        let Ok(bytes) = conn.recv() else { break };
                        replies.push(Reply {
                            index,
                            latency: sent_at.elapsed().as_secs_f64(),
                            late: 0.0,
                            bytes,
                        });
                        if Instant::now() < stop_at && !issue(&mut conn, &mut inflight) {
                            break;
                        }
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (replies, start.elapsed().as_secs_f64(), next.into_inner())
}
