//! Transport: line-delimited JSON over stdio, a unix socket, or TCP.
//!
//! The stdio and unix transports feed the same [`Daemon::handle_line`]
//! loop, so the wire behavior is identical; the replay driver calls
//! `handle_line` directly and therefore exercises exactly what a live
//! client sees. The TCP transport ([`serve_tcp`]) accepts many clients
//! concurrently: state-changing requests are serialized through one
//! writer lock, while read-only probes (`Status`, `Snapshot`,
//! `WhatIf*`) are answered from a published read view — a clone of the
//! daemon taken at the last event boundary — so probes return
//! immediately even while the writer is inside a slow reoptimization.
//! Because [`Daemon::handle_readonly`] on a view taken at event
//! boundary `seq` produces exactly the bytes the single-threaded loop
//! would produce at that `seq`, the concurrency is observationally
//! deterministic (see `DESIGN.md`).

use crate::daemon::Daemon;
use std::io::{self, BufRead, ErrorKind, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The loop every transport runs until EOF or `stopped()`. Empty lines
/// are ignored; every other line gets exactly one reply line, flushed
/// immediately. A reader with a read timeout notices `stopped()` while
/// idle; partial lines survive timeouts because `read_line` appends into
/// the same buffer across retries.
///
/// `writeln!` on an unbuffered writer is two `write`s; over TCP with
/// Nagle on, the newline waits for the client's ACK of the reply (the
/// 44 ms per line of `benchmark/README.md`). ROADMAP item 1(a) has the
/// one-`write_all` fix and why it is not here.
fn line_loop<R: BufRead, W: Write>(
    mut input: R,
    output: &mut W,
    mut handle: impl FnMut(&str) -> String,
    stopped: impl Fn() -> bool,
) -> io::Result<()> {
    let mut buf = String::new();
    loop {
        match input.read_line(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if !buf.trim().is_empty() {
                    let reply = handle(buf.trim_end());
                    writeln!(output, "{reply}")?;
                    output.flush()?;
                }
                buf.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        if stopped() {
            return Ok(());
        }
    }
}

/// Serves `daemon` over any line-based reader/writer pair until EOF or
/// a `Shutdown` request.
pub fn serve<R: BufRead, W: Write>(
    daemon: &mut Daemon,
    input: R,
    output: &mut W,
) -> io::Result<()> {
    let shutdown = std::cell::Cell::new(false);
    let handle = |line: &str| {
        let reply = daemon.handle_line(line);
        shutdown.set(daemon.is_shutdown());
        reply
    };
    line_loop(input, output, handle, || shutdown.get())
}

/// Serves `daemon` on stdin/stdout (the default transport).
pub fn serve_stdio(daemon: &mut Daemon) -> io::Result<()> {
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    serve(daemon, stdin.lock(), &mut stdout)
}

/// Serves `daemon` on a unix domain socket, one client at a time (the
/// event loop is single-threaded by design — concurrency would break
/// the determinism contract). The socket file is created fresh and
/// removed on shutdown.
#[cfg(unix)]
pub fn serve_unix(daemon: &mut Daemon, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    while !daemon.is_shutdown() {
        let (stream, _) = listener.accept()?;
        let mut writer = stream.try_clone()?;
        let reader = io::BufReader::new(stream);
        serve(daemon, reader, &mut writer)?;
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Shared state of the TCP transport: the single writer daemon plus
/// the read view published at the last event boundary.
struct Shared {
    writer: Mutex<Daemon>,
    view: RwLock<Arc<Daemon>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Handles one line on behalf of a client. Read-only requests are
    /// answered from the published view without touching the writer;
    /// everything else (events, restore, shutdown, malformed lines)
    /// goes through the writer lock, after which a fresh view is
    /// published.
    fn handle_line(&self, line: &str) -> String {
        if let Ok(req) = serde_json::from_str::<crate::event::Request>(line) {
            if req.is_readonly() {
                let view = self.view.read().expect("view lock").clone();
                if let Some(reply) = view.handle_readonly(&req) {
                    return serde_json::to_string(&reply).expect("replies always serialize");
                }
            }
        }
        let mut daemon = self.writer.lock().expect("writer lock");
        let reply = daemon.handle_line(line);
        if daemon.is_shutdown() {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        *self.view.write().expect("view lock") = Arc::new(daemon.clone());
        reply
    }
}

/// Serves `daemon` over TCP on an already-bound listener (bind to port
/// 0 and read `listener.local_addr()` first when you need the
/// ephemeral port). Each client connection gets its own thread;
/// read-only probes are served concurrently from the published read
/// view while state-changing requests serialize through the writer
/// lock. Returns once a `Shutdown` request has been processed and all
/// client threads have drained.
///
/// Determinism note: replies to the *writer* stream are a pure
/// function of the event sequence exactly as under [`serve`]; probes
/// observe the state as of the last published event boundary. Running
/// several concurrent writers is allowed but makes the interleaving —
/// and therefore the reply stream — scheduling-dependent; keep one
/// writer when byte-reproducibility matters (see `DESIGN.md`).
pub fn serve_tcp(daemon: Daemon, listener: TcpListener) -> io::Result<()> {
    let shared = Arc::new(Shared {
        view: RwLock::new(Arc::new(daemon.clone())),
        writer: Mutex::new(daemon),
        shutdown: AtomicBool::new(false),
    });
    listener.set_nonblocking(true)?;
    let mut clients: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                clients.push(std::thread::spawn(move || {
                    let _ = serve_tcp_client(&shared, stream);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
        clients.retain(|h| !h.is_finished());
    }
    for h in clients {
        let _ = h.join();
    }
    Ok(())
}

/// One TCP client: the line loop over [`Shared::handle_line`]. Reads
/// use a short timeout so an idle connection notices shutdown instead
/// of blocking the server's final join forever.
fn serve_tcp_client(shared: &Shared, stream: std::net::TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    line_loop(
        io::BufReader::new(stream),
        &mut writer,
        |line| shared.handle_line(line),
        || shared.shutdown.load(Ordering::SeqCst),
    )
}
