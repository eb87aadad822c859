//! The transport layer of the worker protocol: line-delimited JSON frames
//! over any byte stream, behind one [`Transport`] trait.
//!
//! The framing is deliberately trivial — one JSON document per line — so
//! the *same* protocol runs over a spawned child's stdio, a TCP socket, or
//! a Unix-domain socket, and a conversation captured on one transport
//! replays on another. [`Connector`]s open transports: [`SpawnConnector`]
//! forks a worker subprocess, [`SocketConnector`] dials a
//! [`WorkerAddr`]. The other end of a socket is a [`Listener`], the one
//! place daemon and worker bind and accept.

use super::ExecError;
use crate::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The longest line a peer may send as one frame. The largest legitimate
/// frames are compose jobs carrying their pipeline's element summaries —
/// about 60 kB for the preset router, more as configured tables grow — so
/// this sits three orders of magnitude above what the protocol produces
/// and still bounds what one peer line can make a daemon or worker buffer.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Append to `line` up to and including the next `\n` of `reader`:
/// `Ok(true)` at a complete line, `Ok(false)` at the end of the stream, an
/// error once the line outgrows [`MAX_FRAME_BYTES`]. What was read stays in
/// `line` when a read fails, so a caller that keeps `line` across calls
/// resumes a timed-out read where it stopped.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    // Room for one byte past the cap, so a line of exactly the cap passes.
    let room = (MAX_FRAME_BYTES + 1).saturating_sub(line.len());
    reader.take(room as u64).read_until(b'\n', line)?;
    if line.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame longer than {MAX_FRAME_BYTES} bytes"),
        ));
    }
    Ok(line.ends_with(b"\n"))
}

/// Read one frame (one non-blank line) from `reader`, accumulating it in
/// `line`; `Ok(None)` at EOF. A read deadline that elapses mid-frame is
/// [`ExecError::Timeout`] and leaves the partial frame in `line` for the
/// next call.
fn read_frame_into(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> Result<Option<Json>, ExecError> {
    loop {
        let complete = read_bounded_line(reader, line).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => ExecError::Timeout,
            _ => ExecError::Protocol(format!("reading frame: {e}")),
        })?;
        let frame = match std::str::from_utf8(line).map(str::trim) {
            Ok("") => None,
            Ok(text) => Some(Json::parse(text).map_err(|e| format!("bad frame: {e}"))),
            Err(e) => Some(Err(format!("bad frame: {e}"))),
        };
        line.clear();
        match frame {
            Some(frame) => return frame.map(Some).map_err(ExecError::Protocol),
            None if complete => continue,
            None => return Ok(None),
        }
    }
}

/// Read one frame (one non-blank line) from `reader`; `Ok(None)` at EOF.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<Json>, ExecError> {
    read_frame_into(reader, &mut Vec::new())
}

/// Write one frame as one line, in one `write`, and flush it. Body and
/// newline go out together: on an unbuffered TCP socket a separate newline
/// write waits under Nagle for the body's ACK, which the peer delays
/// (≈ 40 ms) because it cannot answer half a line.
pub fn write_frame(writer: &mut impl Write, frame: &Json) -> Result<(), ExecError> {
    let mut line = frame.to_text();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| ExecError::Protocol(format!("writing frame: {e}")))
}

/// Frames are small request/reply messages, several of which may be written
/// back to back (a capacity > 1 job window): never hold one for coalescing.
pub(crate) fn tcp_no_delay(stream: &TcpStream) -> Result<(), ExecError> {
    stream
        .set_nodelay(true)
        .map_err(|e| ExecError::Connect(format!("set TCP_NODELAY: {e}")))
}

/// One side of a framed worker conversation.
pub trait Transport: Send {
    /// Send one frame.
    fn send(&mut self, frame: &Json) -> Result<(), ExecError>;

    /// Receive one frame; `Ok(None)` when the peer closed the stream.
    fn recv(&mut self) -> Result<Option<Json>, ExecError>;

    /// Arm (or disarm, with `None`) a read deadline. Once armed, `recv`
    /// may return [`ExecError::Timeout`] when no complete frame arrives in
    /// time; any partially received frame stays buffered for the next
    /// call, so timing out is always safe mid-stream. Returns `false`
    /// when this transport cannot time out reads (stdio pipes): such
    /// transports keep blocking indefinitely and never return `Timeout`.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> bool {
        let _ = timeout;
        false
    }

    /// A human-readable peer description for logs and the registry.
    fn peer(&self) -> String;
}

/// Either flavour of connected stream socket, behind one Read/Write
/// implementation so [`SocketTransport`] and the servers a [`Listener`]
/// feeds handle TCP and Unix-domain peers identically.
pub(crate) enum SocketStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SocketStream {
    fn try_clone(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketStream::Tcp(s) => s.try_clone().map(SocketStream::Tcp),
            SocketStream::Unix(s) => s.try_clone().map(SocketStream::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(timeout),
            SocketStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            SocketStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            SocketStream::Unix(s) => s.flush(),
        }
    }
}

/// A timeout-capable transport over a connected socket. It keeps the
/// partial line of an unfinished frame across calls, so a `recv` that
/// times out mid-frame resumes cleanly on the next call. That property is
/// what makes heartbeat-driven read deadlines safe: the coordinator can
/// poll, ping, and keep reading without ever corrupting the framing.
pub struct SocketTransport {
    read: BufReader<SocketStream>,
    write: SocketStream,
    /// The bytes of a frame whose line has not completed yet.
    partial: Vec<u8>,
    peer: String,
}

impl SocketTransport {
    fn new(stream: SocketStream, peer: String) -> Result<Self, ExecError> {
        let read = stream
            .try_clone()
            .map_err(|e| ExecError::Connect(format!("{peer}: {e}")))?;
        Ok(SocketTransport {
            read: BufReader::new(read),
            write: stream,
            partial: Vec::new(),
            peer,
        })
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, frame: &Json) -> Result<(), ExecError> {
        write_frame(&mut self.write, frame)
    }

    fn recv(&mut self) -> Result<Option<Json>, ExecError> {
        read_frame_into(&mut self.read, &mut self.partial)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.read.get_ref().set_read_timeout(timeout).is_ok()
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// A transport over a spawned worker subprocess's stdio. Dropping it
/// closes the child's stdin (the worker drains and exits at EOF) and reaps
/// the process.
pub struct ChildTransport {
    child: Child,
    reader: BufReader<ChildStdout>,
    writer: Option<ChildStdin>,
    peer: String,
}

impl Transport for ChildTransport {
    fn send(&mut self, frame: &Json) -> Result<(), ExecError> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| ExecError::Protocol("worker stdin already closed".into()))?;
        write_frame(writer, frame)
    }

    fn recv(&mut self) -> Result<Option<Json>, ExecError> {
        read_frame(&mut self.reader)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

impl Drop for ChildTransport {
    fn drop(&mut self) {
        // Closing stdin is the shutdown signal; then reap.
        drop(self.writer.take());
        let _ = self.child.wait();
    }
}

/// Where a socket worker listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerAddr {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl WorkerAddr {
    /// Parse an address: `unix:PATH` or anything containing a `/` is a
    /// Unix-socket path, everything else is `host:port` TCP.
    pub fn parse(text: &str) -> WorkerAddr {
        if let Some(path) = text.strip_prefix("unix:") {
            WorkerAddr::Unix(PathBuf::from(path))
        } else if text.contains('/') {
            WorkerAddr::Unix(PathBuf::from(text))
        } else {
            WorkerAddr::Tcp(text.to_string())
        }
    }
}

impl fmt::Display for WorkerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerAddr::Tcp(addr) => write!(f, "{addr}"),
            WorkerAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound stream-socket listener, TCP or Unix-domain: where the daemon
/// and socket workers accept their peers.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener and the address it bound (`:0` resolved to a port).
    Tcp(TcpListener, String),
    /// A Unix-domain listener and its socket path.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind `addr`. A Unix socket file left behind by a dead listener is
    /// reclaimed; one a live peer still answers on is refused, so a second
    /// server cannot take the address of a first that keeps running,
    /// unreachable.
    pub fn bind(addr: &WorkerAddr) -> Result<Listener, ExecError> {
        let failed = |e: std::io::Error| ExecError::Connect(format!("bind {addr}: {e}"));
        match addr {
            WorkerAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec).map_err(failed)?;
                let local = listener.local_addr().map_err(failed)?;
                Ok(Listener::Tcp(listener, local.to_string()))
            }
            WorkerAddr::Unix(path) => {
                let socket = std::fs::symlink_metadata(path)
                    .is_ok_and(|meta| std::os::unix::fs::FileTypeExt::is_socket(&meta.file_type()));
                if socket {
                    if UnixStream::connect(path).is_ok() {
                        return Err(ExecError::Connect(format!(
                            "{addr} is in use by a live peer"
                        )));
                    }
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path).map_err(failed)?;
                Ok(Listener::Unix(listener, path.clone()))
            }
        }
    }

    /// The bound address, as peers dial it.
    pub fn local(&self) -> WorkerAddr {
        match self {
            Listener::Tcp(_, local) => WorkerAddr::Tcp(local.clone()),
            Listener::Unix(_, path) => WorkerAddr::Unix(path.clone()),
        }
    }

    /// Wait for the next peer: the connection's read and write halves and
    /// a description of the peer for logs.
    pub(crate) fn accept(
        &self,
    ) -> Result<(BufReader<SocketStream>, SocketStream, String), ExecError> {
        let failed = |e: std::io::Error| ExecError::Connect(format!("accept: {e}"));
        let (stream, peer) = match self {
            Listener::Tcp(listener, _) => {
                let (stream, peer) = listener.accept().map_err(failed)?;
                tcp_no_delay(&stream)?;
                (SocketStream::Tcp(stream), peer.to_string())
            }
            Listener::Unix(listener, _) => {
                let (stream, _) = listener.accept().map_err(failed)?;
                (SocketStream::Unix(stream), self.local().to_string())
            }
        };
        let reader = stream
            .try_clone()
            .map_err(|e| ExecError::Connect(format!("clone stream: {e}")))?;
        Ok((BufReader::new(reader), stream, peer))
    }
}

/// Opens a transport to one worker. Connectors are reusable: dispatch
/// phases reconnect (a stdio worker is respawned, a socket worker's
/// listener accepts a fresh connection).
pub trait Connector: Send + Sync {
    /// Open a fresh transport.
    fn connect(&self) -> Result<Box<dyn Transport>, ExecError>;

    /// A human-readable description for logs and errors.
    fn describe(&self) -> String;
}

/// Spawns `program args...` and talks to it over stdio.
pub struct SpawnConnector {
    /// The worker program (typically the `vericlick` binary).
    pub program: PathBuf,
    /// Its arguments (typically `["worker"]`).
    pub args: Vec<String>,
    /// The worker's stable identity in the registry. Each dispatch phase
    /// respawns the child, so the pid changes — the registry deduplicates
    /// by this label instead, keeping fleet-size stats honest.
    pub label: String,
}

impl Connector for SpawnConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, ExecError> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ExecError::Spawn(format!("{}: {e}", self.program.display())))?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| ExecError::Spawn("worker stdin not piped".into()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| ExecError::Spawn("worker stdout not piped".into()))?;
        Ok(Box::new(ChildTransport {
            child,
            reader: BufReader::new(stdout),
            writer: Some(stdin),
            peer: self.label.clone(),
        }))
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

/// Dials a socket worker at a [`WorkerAddr`].
pub struct SocketConnector {
    /// The worker's listen address.
    pub addr: WorkerAddr,
}

impl Connector for SocketConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, ExecError> {
        let addr = &self.addr;
        let failed = |e: std::io::Error| ExecError::Connect(format!("{addr}: {e}"));
        let stream = match addr {
            WorkerAddr::Tcp(spec) => {
                let stream = TcpStream::connect(spec).map_err(failed)?;
                tcp_no_delay(&stream)?;
                SocketStream::Tcp(stream)
            }
            WorkerAddr::Unix(path) => {
                SocketStream::Unix(UnixStream::connect(path).map_err(failed)?)
            }
        };
        Ok(Box::new(SocketTransport::new(stream, addr.to_string())?))
    }

    fn describe(&self) -> String {
        self.addr.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_addr_parses_tcp_and_unix() {
        assert_eq!(
            WorkerAddr::parse("127.0.0.1:7777"),
            WorkerAddr::Tcp("127.0.0.1:7777".into())
        );
        assert_eq!(
            WorkerAddr::parse("/tmp/w.sock"),
            WorkerAddr::Unix(PathBuf::from("/tmp/w.sock"))
        );
        assert_eq!(
            WorkerAddr::parse("unix:relative.sock"),
            WorkerAddr::Unix(PathBuf::from("relative.sock"))
        );
        assert_eq!(WorkerAddr::parse("unix:/x/y").to_string(), "unix:/x/y");
    }

    #[test]
    fn a_unix_path_a_live_listener_answers_on_is_refused_and_a_dead_one_reclaimed() {
        let dir = std::env::temp_dir().join(format!("vericlick-listener-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr = WorkerAddr::Unix(dir.join("live.sock"));
        let first = Listener::bind(&addr).unwrap();
        assert_eq!(first.local(), addr);

        let second = Listener::bind(&addr);
        assert!(
            matches!(&second, Err(ExecError::Connect(m)) if m.contains("in use")),
            "{second:?}"
        );
        // The first keeps serving: past the refused binder's probe, a
        // client's frame is echoed back.
        let server = std::thread::spawn(move || loop {
            let (mut reader, mut writer, _) = first.accept().unwrap();
            if let Some(frame) = read_frame(&mut reader).unwrap() {
                write_frame(&mut writer, &frame).unwrap();
                return first;
            }
        });
        let mut client = SocketConnector { addr: addr.clone() }.connect().unwrap();
        client.send(&Json::obj([("a", Json::int(1u64))])).unwrap();
        let echo = client.recv().unwrap().unwrap();
        assert_eq!(echo.get("a").and_then(Json::as_u64), Some(1));
        drop(server.join().unwrap());

        // Dropped, the listener leaves its socket file behind; nobody
        // answers on it, so the next bind reclaims it.
        let WorkerAddr::Unix(path) = &addr else {
            unreachable!()
        };
        assert!(path.exists(), "the stale socket file stays");
        Listener::bind(&addr).expect("a dead socket file is reclaimed");

        // A file that is not a socket is never deleted to make room.
        let file = dir.join("not-a-socket");
        std::fs::write(&file, "keep").unwrap();
        assert!(Listener::bind(&WorkerAddr::Unix(file.clone())).is_err());
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "keep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_is_one_write_and_round_trips() {
        /// Counts `write` calls: on an unbuffered socket each is a segment.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let frame = Json::obj([("kind", Json::str("job")), ("id", Json::int(7u64))]);
        let mut out = Counting(Vec::new(), 0);
        write_frame(&mut out, &frame).unwrap();
        write_frame(&mut out, &frame).unwrap();
        assert_eq!(out.1, 2, "one write per frame, newline included");
        let mut reader = std::io::Cursor::new(out.0);
        for _ in 0..2 {
            let back = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(back.to_text(), frame.to_text());
        }
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn an_over_long_line_is_a_protocol_error_not_an_allocation() {
        // A peer that never sends a newline: the reader gives up at the cap
        // instead of buffering the stream.
        let mut endless = BufReader::new(std::io::repeat(b'x'));
        let result = read_frame(&mut endless);
        assert!(
            matches!(&result, Err(ExecError::Protocol(m)) if m.contains("longer than")),
            "{result:?}"
        );
        // A line of exactly the cap is still a frame (here, a bad one).
        let mut line = vec![b'x'; MAX_FRAME_BYTES - 1];
        line.push(b'\n');
        let result = read_frame(&mut std::io::Cursor::new(line));
        assert!(
            matches!(&result, Err(ExecError::Protocol(m)) if m.contains("bad frame")),
            "{result:?}"
        );
    }

    #[test]
    fn socket_transport_bounds_its_frames_too() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // The reader hangs up at the cap, so the tail of this fails.
            let chunk = vec![b'['; 1 << 20];
            for _ in 0..=MAX_FRAME_BYTES >> 20 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = SocketTransport::new(SocketStream::Tcp(stream), addr.to_string()).unwrap();
        let result = t.recv();
        assert!(
            matches!(&result, Err(ExecError::Protocol(m)) if m.contains("longer than")),
            "{result:?}"
        );
        drop(t);
        peer.join().unwrap();
    }

    #[test]
    fn socket_transport_times_out_without_losing_a_partial_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Half a frame, a pause long enough for the reader's deadline
            // to fire, then the rest plus a second complete frame.
            stream.write_all(b"{\"a\":").unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(200));
            stream.write_all(b"1}\n{\"b\":2}\n").unwrap();
            stream.flush().unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = SocketTransport::new(SocketStream::Tcp(stream), addr.to_string()).unwrap();
        assert!(t.set_read_timeout(Some(Duration::from_millis(50))));
        assert!(
            matches!(t.recv(), Err(ExecError::Timeout)),
            "the deadline fires before the frame completes"
        );
        assert!(t.set_read_timeout(Some(Duration::from_millis(2000))));
        let first = t.recv().unwrap().unwrap();
        assert_eq!(
            first.get("a").and_then(Json::as_u64),
            Some(1),
            "the partial frame was retained across the timeout"
        );
        let second = t.recv().unwrap().unwrap();
        assert_eq!(second.get("b").and_then(Json::as_u64), Some(2));
        peer.join().unwrap();
    }
}
