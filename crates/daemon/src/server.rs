//! Transport: line-delimited JSON over stdio, a unix socket or TCP, on
//! one serving path: one connection loop for stdio and for every unix or
//! TCP client, one writer for state-changing lines, and a read view
//! published at the last event boundary that answers read-only probes at
//! once. A non-UTF-8 line or a panic costs one [`Reply::Error`] and no
//! state, and no lock is left poisoned (`DESIGN.md`, "Serving", has the
//! determinism and rollback arguments).

use crate::daemon::Daemon;
use crate::event::{Reply, Request};
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// How long an idle client blocks in `read` before it checks for
/// shutdown, so it cannot block the server's final join forever.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// The state every connection shares: the one writer and the read view
/// published after its last line.
struct Shared {
    writer: Mutex<Daemon>,
    view: RwLock<Arc<Daemon>>,
    shutdown: AtomicBool,
    /// [`Daemon::handle`]; a unit test substitutes one that panics.
    handler: fn(&mut Daemon, Request) -> Reply,
}

fn to_line(reply: &Reply) -> String {
    serde_json::to_string(reply).expect("replies always serialize")
}

fn error_line(message: String) -> String {
    to_line(&Reply::Error { message })
}

/// `f()`, or the `Error` reply line that stands in for it when it panics.
fn caught(f: impl FnOnce() -> String) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| error_line("internal error: the request was not applied".to_string()))
}

impl Shared {
    fn new(daemon: Daemon) -> Self {
        Shared {
            view: RwLock::new(Arc::new(daemon.clone())),
            writer: Mutex::new(daemon),
            shutdown: AtomicBool::new(false),
            handler: Daemon::handle,
        }
    }

    fn view(&self) -> Arc<Daemon> {
        Arc::clone(&self.view.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Answers one line as [`Daemon::handle_line`] would, parsing it once:
    /// a read-only probe from the view, any other request through the
    /// writer, which then publishes a fresh view. So the view equals the
    /// writer whenever a writer line starts, and a panicking handler is
    /// undone by restoring the writer from it before the lock is released.
    fn handle(&self, line: &str) -> String {
        let req = match serde_json::from_str::<Request>(line) {
            Ok(req) => req,
            Err(e) => return error_line(format!("bad request: {e}")),
        };
        if let Some(reply) = self.view().handle_readonly(&req) {
            return to_line(&reply);
        }
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let reply = caught(|| to_line(&(self.handler)(&mut writer, req))).unwrap_or_else(|error| {
            *writer = Daemon::clone(&self.view());
            error
        });
        if writer.is_shutdown() {
            self.shutdown.store(true, SeqCst);
        }
        *self.view.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(writer.clone());
        reply
    }

    /// The connection loop of every transport, until EOF or shutdown:
    /// each non-empty line gets one reply line, flushed at once. Reading
    /// bytes makes a non-UTF-8 line an `Error` and keeps a partial line
    /// across read timeouts. A reply is two `write`s (`writeln!`), so over
    /// TCP the newline waits for the client's ACK (the 44 ms per line of
    /// `benchmark/README.md`); ROADMAP item 1(a) has the one-write fix.
    fn connection(&self, mut input: impl BufRead, output: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        while !self.shutdown.load(SeqCst) {
            match input.read_until(b'\n', &mut buf) {
                Ok(0) if buf.is_empty() => return Ok(()),
                Ok(_) => {
                    let reply = match std::str::from_utf8(&buf).map(str::trim_end) {
                        Ok("") => None,
                        Ok(line) => Some(caught(|| self.handle(line)).unwrap_or_else(|e| e)),
                        Err(e) => Some(error_line(format!("bad request: {e}"))),
                    };
                    if let Some(reply) = reply {
                        writeln!(output, "{reply}")?;
                        output.flush()?;
                    }
                    buf.clear();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Serves `daemon` as one connection over a reader/writer pair until EOF or `Shutdown`.
pub fn serve<R: BufRead, W: Write>(daemon: Daemon, input: R, output: &mut W) -> io::Result<()> {
    Shared::new(daemon).connection(input, output)
}

/// Serves `daemon` on stdin/stdout (the default transport).
pub fn serve_stdio(daemon: Daemon) -> io::Result<()> {
    serve(daemon, io::stdin().lock(), &mut io::stdout())
}

/// The accept loop of the unix and TCP transports: a thread per client
/// runs the connection loop on a stream `prepare` made blocking with
/// [`READ_TIMEOUT`], until a `Shutdown` and every client has drained.
fn serve_clients<S: Send + 'static>(
    daemon: Daemon,
    accept: impl Fn() -> io::Result<S>,
    prepare: fn(&S) -> io::Result<()>,
) -> io::Result<()>
where
    for<'a> &'a S: Read + Write,
{
    let shared = Arc::new(Shared::new(daemon));
    let mut clients = Vec::new();
    while !shared.shutdown.load(SeqCst) {
        match accept() {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                clients.push(std::thread::spawn(move || {
                    let mut output = &stream;
                    let input = io::BufReader::new(&stream);
                    let _ = prepare(&stream).and_then(|()| shared.connection(input, &mut output));
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
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

/// Serves `daemon` on a unix domain socket like [`serve_tcp`]; the
/// socket file is created fresh and removed on shutdown.
#[cfg(unix)]
pub fn serve_unix(daemon: Daemon, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let accept = || listener.accept().map(|(stream, _)| stream);
    let served = serve_clients(daemon, accept, |stream: &UnixStream| {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))
    });
    let _ = std::fs::remove_file(path);
    served
}

/// Serves `daemon` over TCP on an already-bound listener (bind to port 0
/// and read `listener.local_addr()` first for an ephemeral port), a
/// thread per client. One writer connection gets the replies [`serve`]
/// would; several writers make the interleaving scheduling-dependent.
pub fn serve_tcp(daemon: Daemon, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let accept = || listener.accept().map(|(stream, _)| stream);
    serve_clients(daemon, accept, |stream: &TcpStream| {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DaemonCfg;

    fn daemon() -> Daemon {
        let trace = include_str!("../../../traces/smoke.json");
        let trace: dtr_scenario::ChurnTrace = serde_json::from_str(trace).unwrap();
        Daemon::new(trace.topo, trace.base, None, DaemonCfg::default())
    }

    /// Handles the request, then panics on a directed link event, leaving
    /// the writer with that event applied.
    fn panics_after_directed_events(d: &mut Daemon, req: Request) -> Reply {
        let directed = matches!(req, Request::DirectedLinkDown { .. });
        let reply = d.handle(req);
        assert!(!directed, "injected panic");
        reply
    }

    /// One connection's replies to `lines`.
    fn replies(shared: &Shared, lines: &[&str]) -> Vec<String> {
        let (input, mut output) = (lines.join("\n"), Vec::new());
        shared.connection(input.as_bytes(), &mut output).unwrap();
        output[..].lines().map(Result::unwrap).collect()
    }

    #[test]
    fn a_panic_costs_one_error_reply_and_no_state() {
        let shared = Shared {
            handler: panics_after_directed_events,
            ..Shared::new(daemon())
        };
        let (status, down) = ("\"Status\"", "{\"DirectedLinkDown\":{\"link\":0}}");
        let first = replies(&shared, &[status, down, status]);
        let error = serde_json::from_str(&first[1]);
        assert!(matches!(error, Ok(Reply::Error { .. })), "{first:?}");
        assert_eq!(first[2..], first[..1], "seq or state moved");

        // A second connection reaches the rolled-back writer, whose next
        // event is answered as by a daemon that never panicked.
        let event = "{\"LinkDown\":{\"link\":0}}";
        let mut never_panicked = daemon();
        let expected = [event, status].map(|line| never_panicked.handle_line(line));
        assert_eq!(replies(&shared, &[event, status]), expected);
    }
}
