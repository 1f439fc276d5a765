//! Connections and newline framing for the wire protocol: the one accept
//! loop ([`serve_connections`]) and the one read loop ([`read_lines`]) of
//! the daemon and the router, each handing lines to its server's
//! [`Lines`], and the [`Framer`] that also frames responses for
//! [`crate::client::Client`]. Accept blocks, and drain wakes it
//! ([`wake`]); reads time out only so an idle connection notices a drain.
//!
//! Framing is done by hand on a byte buffer rather than
//! `BufReader::read_line` because reads run under that timeout, and
//! `read_line` discards partially read bytes when it returns an error —
//! a line split across TCP segments would be corrupted.

use std::io::{ErrorKind, Read as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ltsp_cache::Fingerprint;

use crate::proto::Response;

/// How long an idle connection's read blocks before it re-checks the
/// drain flag, and how long an accept loop short of file descriptors
/// pauses. It delays no request: a read returns as soon as bytes arrive.
const IDLE_RECHECK: Duration = Duration::from_millis(25);

/// The longest request line a server buffers. A client that sends more
/// without a newline is answered `status:"error"` and disconnected; the
/// largest kernels the repository serves are three orders of magnitude
/// below this.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Per-connection buffers (inbound bytes, the inline response line) are
/// reused from line to line and trimmed back to this once an unusually
/// large line has passed through.
pub(crate) const BUFFER_KEEP_BYTES: usize = 64 << 10;

/// Newline framing over one connection's inbound bytes: every byte is
/// searched for the newline once, a line is handed out as the slice it
/// arrived in, and consumed bytes are dropped once per read rather than
/// once per line.
#[derive(Default)]
pub(crate) struct Framer {
    buf: Vec<u8>,
    /// Where the first unconsumed line starts.
    start: usize,
    /// Bytes before this hold no newline at or after `start`.
    scanned: usize,
}

impl Framer {
    /// Appends bytes just read from the connection.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its newline.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                let line = self.start..end;
                self.start = end + 1;
                self.scanned = end + 1;
                Some(&self.buf[line])
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Drops the consumed lines; what remains is an unfinished line.
    pub(crate) fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        if self.buf.is_empty() {
            self.buf.shrink_to(BUFFER_KEEP_BYTES);
        }
    }

    /// After [`Framer::compact`]: once the unfinished line has grown past
    /// [`MAX_REQUEST_BYTES`], frees it and returns the typed refusal to
    /// answer it with. Its id is content-derived like a parse failure's,
    /// from the line's first 256 bytes, so every server refuses the same
    /// bytes with the same line.
    pub(crate) fn refuse_oversized(&mut self) -> Option<Response> {
        if self.buf.len() <= MAX_REQUEST_BYTES {
            return None;
        }
        let id = format!("q{}", Fingerprint::of_bytes(&self.buf[..256]).short_hex());
        self.buf = Vec::new();
        self.scanned = 0;
        Some(Response::error(
            &id,
            "error",
            &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
        ))
    }
}

/// One connection's side of [`read_lines`]: what its server does with
/// each line.
pub trait Lines {
    /// Serves one request line, trimmed and never empty. `false` closes
    /// the connection.
    fn line(&mut self, stream: &mut TcpStream, line: &str) -> bool;

    /// Sends the refusal of an oversized line. `true` once it is on its
    /// way: the connection then swallows what the client still sends
    /// before it closes.
    fn refuse(&mut self, stream: &mut TcpStream, refusal: Response) -> bool;
}

/// Accepts connections on `listener` until `draining` holds, serving
/// each on a thread named `name` that lives as long as the connection,
/// with writes timing out after `write_timeout` and Nagle off. Returns
/// once every connection has closed. A connection that cannot be served
/// (failed accept, no thread, no socket options) is refused alone; only
/// an accept error that is not the connection's own (file descriptors
/// exhausted, above all) pauses the loop, for one [`IDLE_RECHECK`]. A
/// connection that ends while draining [`wake`]s the loop again: the
/// drain's own wake-up finds no descriptor free when it has run out.
pub fn serve_connections(
    listener: &TcpListener,
    name: &str,
    draining: &AtomicBool,
    write_timeout: Duration,
    serve: impl Fn(TcpStream) + Sync,
) {
    // A zero timeout is an error to the socket API, not "no wait".
    let write_timeout = write_timeout.max(Duration::from_millis(1));
    let addr = listener.local_addr().ok();
    let serve = &serve;
    thread::scope(|scope| loop {
        let accepted = listener.accept();
        if draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            // A panic is contained to its connection (whose threads
            // `serve` ends however it ends), so the scope ends in an
            // orderly drain. A thread that cannot be had drops the
            // stream, which refuses the connection.
            Ok((stream, _peer)) => {
                let conn = move || -> std::io::Result<()> {
                    stream.set_read_timeout(Some(IDLE_RECHECK))?;
                    stream.set_write_timeout(Some(write_timeout))?;
                    stream.set_nodelay(true)?;
                    let _ = catch_unwind(AssertUnwindSafe(|| serve(stream)));
                    if let Some(addr) = addr.filter(|_| draining.load(Ordering::SeqCst)) {
                        wake(addr);
                    }
                    Ok(())
                };
                let _ = thread::Builder::new()
                    .name(name.to_string())
                    .spawn_scoped(scope, conn);
            }
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            Err(_) => thread::sleep(IDLE_RECHECK),
        }
    });
}

/// After a drain flag flipped, wakes its [`serve_connections`] loop by
/// connecting to the listener's address `addr` (loopback for an
/// unspecified bind). Out of file descriptors it cannot connect; the
/// connections holding them wake the loop again as they end.
pub fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Hands each line of a [`serve_connections`] connection to `lines`
/// until EOF, a read error, `lines` closing it, or a drain finding it
/// idle. After refusing a line past [`MAX_REQUEST_BYTES`] it swallows the
/// client's input for up to the write timeout: closing a socket with
/// unread input resets it, which could destroy the refusal unread.
pub fn read_lines(stream: &mut TcpStream, draining: &AtomicBool, lines: &mut impl Lines) {
    let mut framer = Framer::default();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => framer.push(&chunk[..n]),
            // Idle: wait for the next request, unless draining.
            Err(e) if timed_out(&e) && !draining.load(Ordering::SeqCst) => continue,
            Err(_) => return,
        }
        while let Some(line) = framer.next_line() {
            let line = String::from_utf8_lossy(line);
            let line = line.trim();
            if !line.is_empty() && !lines.line(stream, line) {
                return;
            }
        }
        framer.compact();
        if let Some(refusal) = framer.refuse_oversized() {
            if lines.refuse(stream, refusal) {
                let linger = stream.write_timeout().ok().flatten();
                let until = Instant::now() + linger.unwrap_or_default();
                while Instant::now() < until && !draining.load(Ordering::SeqCst) {
                    match stream.read(&mut chunk) {
                        Ok(1..) => {}
                        Err(e) if timed_out(&e) => {}
                        _ => return,
                    }
                }
            }
            return;
        }
    }
}

/// True for what a socket read or write under a timeout returns when it
/// merely ran out of time.
pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The framer finds exactly the lines a whole-buffer split finds,
    /// wherever the reads happened to cut the stream.
    #[test]
    fn framing_is_independent_of_read_boundaries() {
        let stream = b"first\n\nsecond line\r\n{\"third\":1}\nunfinished";
        let want: Vec<&[u8]> = vec![b"first", b"", b"second line\r", b"{\"third\":1}"];
        for cut in 1..=stream.len() {
            let mut framer = Framer::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for piece in stream.chunks(cut) {
                framer.push(piece);
                while let Some(line) = framer.next_line() {
                    got.push(line.to_vec());
                }
                framer.compact();
            }
            assert_eq!(got, want, "reads of {cut} bytes");
            assert_eq!(framer.buf, b"unfinished", "reads of {cut} bytes");
        }
    }

    /// An unfinished line is refused only past the cap, with an id
    /// derived from its head, and its bytes are freed.
    #[test]
    fn an_oversized_line_is_refused_past_the_cap() {
        let mut framer = Framer::default();
        framer.push(&vec![b'x'; MAX_REQUEST_BYTES]);
        assert!(framer.next_line().is_none());
        framer.compact();
        assert!(framer.refuse_oversized().is_none(), "at the cap is allowed");
        framer.push(b"x");
        framer.compact();
        let refusal = framer.refuse_oversized().expect("past the cap");
        let id = format!("q{}", Fingerprint::of_bytes(&[b'x'; 256]).short_hex());
        assert_eq!(refusal.id, id);
        assert!(refusal.render().contains("exceeds"));
        framer.compact();
        assert!(framer.buf.is_empty(), "the line's bytes are freed");
    }
}
