//! Newline framing for the wire protocol, shared by every reader of it:
//! the daemon's connection readers, the router's client connections, and
//! [`crate::client::Client`] reading responses.
//!
//! Framing is done by hand on a byte buffer rather than
//! `BufReader::read_line` because reads run under a poll timeout, and
//! `read_line` discards partially read bytes when it returns an error —
//! a line split across TCP segments would be corrupted.

use std::io::Read as _;
use std::net::TcpStream;
use std::time::Instant;

use ltsp_cache::Fingerprint;

use crate::proto::Response;

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
pub struct Framer {
    buf: Vec<u8>,
    /// Where the first unconsumed line starts.
    start: usize,
    /// Bytes before this hold no newline at or after `start`.
    scanned: usize,
}

impl Framer {
    /// Appends bytes just read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its newline.
    pub fn next_line(&mut self) -> Option<&[u8]> {
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
    pub fn compact(&mut self) {
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
    pub fn refuse_oversized(&mut self) -> Option<Response> {
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

/// Swallows, without keeping, what a refused client is still sending,
/// until it stops, `until` passes or `stop()` holds — closing a socket
/// with unread input resets it, which could destroy the refusal before
/// the client reads it. `stream` must carry a read timeout.
pub fn discard_input(stream: &mut TcpStream, until: Instant, stop: impl Fn() -> bool) {
    let mut sink = [0u8; 16 * 1024];
    while Instant::now() < until && !stop() {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
    }
}

/// True for what a socket read or write under a timeout returns when it
/// merely ran out of time.
pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
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
