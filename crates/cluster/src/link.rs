//! The pluggable boundary transport: how framed wire bytes move
//! between execution units.
//!
//! The frame protocol (lane payloads, fallible encode/decode, per-edge
//! sequence numbers, bounded retry-with-backoff, receive timeouts) does
//! not depend on how frames move. This module puts the *moving* behind
//! a [`Transport`] abstraction with three backends:
//!
//! - **channel** ([`ChannelTransport`]) — the existing bounded
//!   crossbeam channel, default and behavior-preserving: the threaded
//!   runner's clean path is bit-identical to before the extraction;
//! - **TCP** — a [`StreamSink`]/[`read_control`] pair over
//!   [`std::net::TcpStream`], hosts as separate OS processes;
//! - **Unix-domain socket** — the same pair over
//!   [`std::os::unix::net::UnixStream`], lower loopback overhead.
//!
//! The socket backends wrap each boundary frame in a
//! [`ControlFrame::Data`] envelope ([`qap_types::encode_control`]); the inner
//! bytes reach the consuming engine untouched, so every decode-hardening
//! and fault-injection property of the in-process path carries over to
//! sockets unchanged.
//!
//! Link-level failures (refused/reset connections, a peer closing
//! mid-frame, handshake rejections) surface as
//! [`qap_exec::FailureCause::Link`] — the socket counterpart of the
//! fault classes PR 5 typed for in-process runs.

use std::fmt;
use std::io::{BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use qap_plan::NodeId;
use qap_types::{
    decode_control, encode_control, Bytes, BytesMut, ControlFrame, TypeError, CONTROL_HEADER_LEN,
};

/// A boundary frame in flight: (global producer node id, encoded wire
/// frame).
pub type Frame = (NodeId, Bytes);

/// Outcome of a non-blocking frame send.
#[derive(Debug)]
pub enum SendOutcome {
    /// The frame was accepted by the transport.
    Sent,
    /// The transport is at capacity; the frame is handed back for the
    /// caller's retry loop. Only bounded channels produce this —
    /// sockets exert backpressure through blocking writes instead.
    Full(Frame),
    /// The consuming end is gone; the frame was discarded. Channel
    /// transports report this when the receiver dropped (a benign
    /// shutdown race, not a fault).
    Closed,
}

/// The sending half of a boundary transport: ships already-framed wire
/// bytes toward the consuming unit. `Err(msg)` is a *link fault* — the
/// transport itself broke (socket reset, write timeout) — and surfaces
/// as [`qap_exec::FailureCause::Link`]; capacity and shutdown races are
/// in-band [`SendOutcome`]s.
pub trait FrameSink: Send {
    /// Attempts to ship a frame without blocking on capacity.
    fn try_send(&mut self, frame: Frame) -> Result<SendOutcome, String>;
    /// Ships a frame, blocking on capacity as long as it takes (what a
    /// session's reader pump does: the consumer it waits on bounds its
    /// own waits).
    fn send(&mut self, frame: Frame) -> Result<SendOutcome, String>;
}

/// Outcome of a frame receive.
#[derive(Debug)]
pub enum RecvOutcome {
    /// A frame arrived.
    Frame(Frame),
    /// Nothing arrived within the bound.
    Timeout,
    /// Every producer is done; no more frames will arrive.
    Closed,
}

/// The receiving half of a boundary transport.
pub trait FrameSource {
    /// Waits for the next frame without bound.
    fn recv(&mut self) -> Result<RecvOutcome, String>;
    /// Waits for the next frame up to `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<RecvOutcome, String>;
}

/// A boundary transport: constructs connected sink/source pairs for a
/// run. The central consumer always drains one [`FrameSource`]; each
/// producing unit owns a [`FrameSink`] (possibly a clone, possibly a
/// per-process socket).
pub trait Transport {
    /// The producing half.
    type Sink: FrameSink;
    /// The consuming half.
    type Source: FrameSource;

    /// Builds a connected sink/source pair with the given capacity (in
    /// frames) on backends that buffer.
    fn pair(&self, capacity: usize) -> (Self::Sink, Self::Source);
}

/// The in-process backend: a bounded crossbeam channel, exactly the
/// transport the threaded runner has used since PR 3.
pub struct ChannelTransport;

impl Transport for ChannelTransport {
    type Sink = ChannelSink;
    type Source = ChannelSource;

    fn pair(&self, capacity: usize) -> (ChannelSink, ChannelSource) {
        let (tx, rx) = bounded(capacity.max(1));
        (ChannelSink(tx), ChannelSource(rx))
    }
}

/// [`FrameSink`] over a bounded crossbeam sender. Cloned once per
/// producing worker.
#[derive(Clone)]
pub struct ChannelSink(pub(crate) Sender<Frame>);

impl FrameSink for ChannelSink {
    fn try_send(&mut self, frame: Frame) -> Result<SendOutcome, String> {
        match self.0.try_send(frame) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(TrySendError::Full(f)) => Ok(SendOutcome::Full(f)),
            Err(TrySendError::Disconnected(_)) => Ok(SendOutcome::Closed),
        }
    }

    fn send(&mut self, frame: Frame) -> Result<SendOutcome, String> {
        match self.0.send(frame) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(_) => Ok(SendOutcome::Closed),
        }
    }
}

/// [`FrameSource`] over the matching bounded receiver.
pub struct ChannelSource(pub(crate) Receiver<Frame>);

impl FrameSource for ChannelSource {
    fn recv(&mut self) -> Result<RecvOutcome, String> {
        match self.0.recv() {
            Ok(f) => Ok(RecvOutcome::Frame(f)),
            Err(_) => Ok(RecvOutcome::Closed),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<RecvOutcome, String> {
        match self.0.recv_timeout(timeout) {
            Ok(f) => Ok(RecvOutcome::Frame(f)),
            Err(RecvTimeoutError::Timeout) => Ok(RecvOutcome::Timeout),
            Err(RecvTimeoutError::Disconnected) => Ok(RecvOutcome::Closed),
        }
    }
}

/// Where a remote host listens (or is listened for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostAddr {
    /// TCP endpoint, e.g. `127.0.0.1:7701`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostAddr::Tcp(a) => write!(f, "tcp:{a}"),
            HostAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

impl HostAddr {
    /// Parses `host:port`, `tcp:host:port` or `unix:/path`.
    pub fn parse(s: &str) -> Result<HostAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix socket address needs a path".into());
            }
            return Ok(HostAddr::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if addr.is_empty() {
            return Err("tcp address needs host:port".into());
        }
        Ok(HostAddr::Tcp(addr.to_string()))
    }
}

/// A connected duplex byte stream of either socket family.
#[derive(Debug)]
pub enum DuplexStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl DuplexStream {
    /// Clones the underlying descriptor so reads and writes can live on
    /// separate threads.
    pub fn try_clone(&self) -> Result<DuplexStream, String> {
        match self {
            DuplexStream::Tcp(s) => s.try_clone().map(DuplexStream::Tcp),
            DuplexStream::Unix(s) => s.try_clone().map(DuplexStream::Unix),
        }
        .map_err(|e| format!("clone stream: {e}"))
    }

    /// Bounds blocking reads; `None` removes the bound.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<(), String> {
        match self {
            DuplexStream::Tcp(s) => s.set_read_timeout(dur),
            DuplexStream::Unix(s) => s.set_read_timeout(dur),
        }
        .map_err(|e| format!("set read timeout: {e}"))
    }

    /// Bounds blocking writes; `None` removes the bound.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> Result<(), String> {
        match self {
            DuplexStream::Tcp(s) => s.set_write_timeout(dur),
            DuplexStream::Unix(s) => s.set_write_timeout(dur),
        }
        .map_err(|e| format!("set write timeout: {e}"))
    }

    /// Shuts down both directions, unblocking any thread mid-read.
    pub fn shutdown(&self) {
        match self {
            DuplexStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            DuplexStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            DuplexStream::Tcp(s) => s.read(buf),
            DuplexStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            DuplexStream::Tcp(s) => s.write(buf),
            DuplexStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            DuplexStream::Tcp(s) => s.flush(),
            DuplexStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener of either socket family.
pub enum HostListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    Unix(UnixListener),
}

impl HostListener {
    /// Binds a listener on `addr`. A stale Unix socket file from a
    /// previous run is removed first.
    pub fn bind(addr: &HostAddr) -> Result<HostListener, String> {
        match addr {
            HostAddr::Tcp(a) => TcpListener::bind(a)
                .map(HostListener::Tcp)
                .map_err(|e| format!("bind {a}: {e}")),
            HostAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                UnixListener::bind(p)
                    .map(HostListener::Unix)
                    .map_err(|e| format!("bind {}: {e}", p.display()))
            }
        }
    }

    /// The address actually bound — resolves a `:0` TCP request to the
    /// kernel-assigned port, so callers can advertise it.
    pub fn local_addr(&self) -> Result<HostAddr, String> {
        match self {
            HostListener::Tcp(l) => l
                .local_addr()
                .map(|a| HostAddr::Tcp(a.to_string()))
                .map_err(|e| format!("local addr: {e}")),
            HostListener::Unix(l) => match l.local_addr() {
                Ok(a) => match a.as_pathname() {
                    Some(p) => Ok(HostAddr::Unix(p.to_path_buf())),
                    None => Err("unix listener has no pathname".into()),
                },
                Err(e) => Err(format!("local addr: {e}")),
            },
        }
    }

    /// Blocks for the next inbound connection.
    pub fn accept(&self) -> Result<DuplexStream, String> {
        match self {
            HostListener::Tcp(l) => l
                .accept()
                .map(|(s, _)| DuplexStream::Tcp(s))
                .map_err(|e| format!("accept: {e}")),
            HostListener::Unix(l) => l
                .accept()
                .map(|(s, _)| DuplexStream::Unix(s))
                .map_err(|e| format!("accept: {e}")),
        }
    }
}

/// Connects to a host, retrying refused/unreachable attempts with
/// exponential backoff until `timeout_ms` elapses (0 falls back to
/// [`CONNECT_FALLBACK_MS`]). A host process still binding its listener
/// is a normal startup race, not a fault — only exhausting the bound
/// is.
pub fn connect_with_backoff(addr: &HostAddr, timeout_ms: u64) -> Result<DuplexStream, String> {
    let bound = Duration::from_millis(if timeout_ms == 0 {
        CONNECT_FALLBACK_MS
    } else {
        timeout_ms
    });
    let started = Instant::now();
    let mut backoff = Duration::from_millis(10);
    loop {
        let attempt = match addr {
            HostAddr::Tcp(a) => TcpStream::connect(a).map(DuplexStream::Tcp),
            HostAddr::Unix(p) => UnixStream::connect(p).map(DuplexStream::Unix),
        };
        match attempt {
            Ok(s) => {
                if let DuplexStream::Tcp(t) = &s {
                    let _ = t.set_nodelay(true);
                }
                return Ok(s);
            }
            Err(e) => {
                let waited = started.elapsed();
                if waited >= bound {
                    return Err(format!(
                        "connect to {addr} failed after {} ms: {e}",
                        waited.as_millis()
                    ));
                }
                std::thread::sleep(backoff.min(bound - waited));
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Connect-retry bound [`connect_with_backoff`] uses when handed a
/// `timeout_ms` of 0.
pub const CONNECT_FALLBACK_MS: u64 = 5_000;

/// How a control read ended without producing a frame.
#[derive(Debug)]
pub enum LinkError {
    /// The underlying socket failed (reset, refused, timed out).
    Io(String),
    /// The peer closed the stream mid-frame: a header or payload was
    /// cut short — the socket analogue of a truncated wire frame.
    MidFrame {
        /// Bytes still expected when the stream ended.
        missing: usize,
    },
    /// The frame bytes arrived complete but did not decode.
    Frame(TypeError),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Io(e) => write!(f, "socket error: {e}"),
            LinkError::MidFrame { missing } => {
                write!(f, "connection closed mid-frame ({missing} bytes short)")
            }
            LinkError::Frame(e) => write!(f, "control frame corrupt: {e}"),
        }
    }
}

/// Writes one control frame and flushes, so the peer never waits on
/// bytes parked in a buffer.
pub fn write_control<W: Write>(
    w: &mut W,
    frame: &ControlFrame,
    scratch: &mut BytesMut,
) -> Result<(), String> {
    let bytes = encode_control(frame, scratch).map_err(|e| format!("encode control: {e}"))?;
    w.write_all(&bytes).map_err(|e| format!("write: {e}"))?;
    w.flush().map_err(|e| format!("flush: {e}"))
}

fn read_exact_or_eof<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<bool, LinkError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && at_boundary {
                    return Ok(false);
                }
                return Err(LinkError::MidFrame {
                    missing: buf.len() - filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(LinkError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Reads one control frame off a stream. `Ok(None)` is a clean
/// end-of-stream at a frame boundary; a stream that ends *inside* a
/// frame reports [`LinkError::MidFrame`] — the typed signature of a
/// peer dying mid-send (`kill -9`, reset) that the chaos suite asserts.
pub fn read_control<R: Read>(r: &mut R) -> Result<Option<ControlFrame>, LinkError> {
    let mut header = [0u8; CONTROL_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, true)? {
        return Ok(None);
    }
    let payload_len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let mut raw = vec![0u8; CONTROL_HEADER_LEN + payload_len];
    raw[..CONTROL_HEADER_LEN].copy_from_slice(&header);
    read_exact_or_eof(r, &mut raw[CONTROL_HEADER_LEN..], false)?;
    decode_control(Bytes::from(raw))
        .map(Some)
        .map_err(LinkError::Frame)
}

/// [`FrameSink`] over a socket: each boundary frame ships as one
/// [`ControlFrame::Data`] envelope, written and flushed immediately.
/// Capacity pressure is the peer's TCP window / socket buffer — a slow
/// consumer blocks the write, which is exactly the backpressure the
/// bounded channel provides in-process. Write failures are link
/// faults.
pub struct StreamSink<W: Write + Send> {
    writer: BufWriter<W>,
    scratch: BytesMut,
}

impl<W: Write + Send> StreamSink<W> {
    /// Wraps a connected stream's write half.
    pub fn new(writer: W) -> Self {
        StreamSink {
            writer: BufWriter::new(writer),
            scratch: BytesMut::new(),
        }
    }

    /// Writes a non-data control frame through the sink's buffer (the
    /// host side interleaves `Result`/`Error`/`Eos` with data frames on
    /// one stream).
    pub fn write_control(&mut self, frame: &ControlFrame) -> Result<(), String> {
        write_control(&mut self.writer, frame, &mut self.scratch)
    }
}

impl<W: Write + Send> FrameSink for StreamSink<W> {
    fn try_send(&mut self, (producer, frame): Frame) -> Result<SendOutcome, String> {
        let envelope = ControlFrame::Data {
            producer: producer as u32,
            frame,
        };
        write_control(&mut self.writer, &envelope, &mut self.scratch)?;
        Ok(SendOutcome::Sent)
    }

    fn send(&mut self, frame: Frame) -> Result<SendOutcome, String> {
        self.try_send(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_addr_parses_both_families() {
        assert_eq!(
            HostAddr::parse("127.0.0.1:7701").unwrap(),
            HostAddr::Tcp("127.0.0.1:7701".into())
        );
        assert_eq!(
            HostAddr::parse("tcp:10.0.0.1:9").unwrap(),
            HostAddr::Tcp("10.0.0.1:9".into())
        );
        assert_eq!(
            HostAddr::parse("unix:/tmp/qap.sock").unwrap(),
            HostAddr::Unix(PathBuf::from("/tmp/qap.sock"))
        );
        assert!(HostAddr::parse("unix:").is_err());
        assert!(HostAddr::parse("").is_err());
        assert_eq!(
            HostAddr::parse("unix:/a/b").unwrap().to_string(),
            "unix:/a/b"
        );
    }

    #[test]
    fn channel_pair_round_trips_and_reports_capacity() {
        let (mut tx, mut rx) = ChannelTransport.pair(1);
        let frame = || (3usize, Bytes::from(b"abc".to_vec()));
        assert!(matches!(tx.try_send(frame()), Ok(SendOutcome::Sent)));
        assert!(matches!(tx.try_send(frame()), Ok(SendOutcome::Full(_))));
        match rx.recv().unwrap() {
            RecvOutcome::Frame((p, b)) => {
                assert_eq!(p, 3);
                assert_eq!(&b[..], b"abc");
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        assert!(matches!(rx.recv().unwrap(), RecvOutcome::Closed));
    }

    #[test]
    fn stream_round_trips_control_frames() {
        let mut buf = Vec::new();
        let mut scratch = BytesMut::new();
        let frames = [
            ControlFrame::Hello {
                version: qap_types::PROTOCOL_VERSION,
                host: 1,
            },
            ControlFrame::Data {
                producer: 7,
                frame: Bytes::from(vec![1, 2, 3]),
            },
            ControlFrame::Eos,
        ];
        for f in &frames {
            write_control(&mut buf, f, &mut scratch).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(read_control(&mut cursor).unwrap().as_ref(), Some(f));
        }
        assert!(read_control(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_typed() {
        let mut buf = Vec::new();
        let mut scratch = BytesMut::new();
        write_control(
            &mut buf,
            &ControlFrame::Data {
                producer: 1,
                frame: Bytes::from(vec![9; 32]),
            },
            &mut scratch,
        )
        .unwrap();
        // Cut the stream inside the payload and inside the header.
        for cut in [buf.len() - 5, CONTROL_HEADER_LEN - 2] {
            let mut cursor = std::io::Cursor::new(&buf[..cut]);
            match read_control(&mut cursor) {
                Err(LinkError::MidFrame { missing }) => assert!(missing > 0),
                other => panic!("cut {cut}: expected MidFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn connect_refused_is_bounded() {
        // Nobody listens on this port: the retry loop must give up
        // within the bound and report the refusal.
        let addr = HostAddr::Tcp("127.0.0.1:1".into());
        let started = Instant::now();
        let err = connect_with_backoff(&addr, 200).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(err.contains("connect"), "{err}");
    }
}
