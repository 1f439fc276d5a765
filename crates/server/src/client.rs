//! The wire protocol's one client: `ltspc remote`/`top`, `loadgen`, the
//! cluster router and supervisor, and the tests all talk to a daemon (or
//! a router) through [`Client`].
//!
//! It owns the line format and the deadline rule. A request is one line
//! out; a response is one `\n`-terminated line back, framed linearly (see
//! [`crate::framing`]) and read under a *total* deadline: a server that
//! trickles bytes cannot stretch a response past it. Every method returns
//! the I/O error it met — `TimedOut` past the deadline, `UnexpectedEof`
//! when the server closed mid-line, `InvalidData` for a response that is
//! not what the op answers. Retry policy is the caller's.

use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::time::{Duration, Instant};

use ltsp_telemetry::json;
use ltsp_telemetry::prom::PromSnapshot;

use crate::framing::{timed_out, Framer};
use crate::proto::{ReqOp, Request};

/// One connection to a daemon or router.
pub struct Client {
    stream: TcpStream,
    framer: Framer,
    /// Bounds every write and each response as a whole; `None` waits
    /// as long as the peer takes.
    timeout: Option<Duration>,
}

impl Client {
    /// Connects to `addr` with Nagle off. Every resolved address gets at
    /// most `timeout` before the next is tried — `TcpStream::connect`
    /// alone can hang for minutes on an unresponsive host — and the same
    /// `timeout` then bounds every write and every response.
    ///
    /// # Errors
    ///
    /// The last connect failure, or `InvalidInput` when `addr` resolves
    /// to nothing.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> io::Result<Client> {
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            Some(t) => connect_timeout(addr, t)?,
        };
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            framer: Framer::default(),
            timeout: None,
        };
        client.set_timeout(timeout)?;
        Ok(client)
    }

    /// Replaces the bound on every later write and on each response as a
    /// whole (a zero timeout is `InvalidInput`).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)?;
        self.stream.set_read_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// The connection itself, for tests that write raw bytes.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one request line; `line` carries no newline, the client
    /// appends it.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(&[line.as_bytes(), b"\n"].concat())
    }

    /// Reads the next response line, newline included, byte for byte.
    pub fn recv(&mut self) -> io::Result<String> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(line) = self.framer.next_line() {
                return String::from_utf8([line, b"\n"].concat()).map_err(invalid);
            }
            self.framer.compact();
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "response deadline exceeded",
                    ));
                }
                self.stream.set_read_timeout(Some(left))?;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    let eof = "server closed the connection";
                    return Err(io::Error::new(ErrorKind::UnexpectedEof, eof));
                }
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if timed_out(&e) || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `line` and reads its response.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// The server's Prometheus text exposition: the `metrics` op, sent
    /// under request id `id`.
    pub fn metrics_text(&mut self, id: &str) -> io::Result<String> {
        let line = self.request(&op_line(ReqOp::Metrics, id))?;
        let v = json::parse(&line).map_err(invalid)?;
        v.get("metrics")
            .and_then(|m| m.as_str())
            .map(ToString::to_string)
            .ok_or_else(|| invalid("metrics response carries no \"metrics\" field"))
    }

    /// [`Client::metrics_text`], parsed.
    pub fn metrics(&mut self, id: &str) -> io::Result<PromSnapshot> {
        PromSnapshot::parse(&self.metrics_text(id)?).map_err(invalid)
    }

    /// Asks the server to drain (the `shutdown` op, under request id
    /// `id`) and returns its acknowledgement line.
    pub fn shutdown(&mut self, id: &str) -> io::Result<String> {
        self.request(&op_line(ReqOp::Shutdown, id))
    }
}

fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing");
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e)
}

/// A request line carrying only an op and an id.
fn op_line(op: ReqOp, id: &str) -> String {
    Request {
        op,
        id: id.to_string(),
        ..Request::default()
    }
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A one-connection fake server running `script` on the accepted
    /// stream; returns its address.
    fn fake_server(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let join = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            script(stream);
        });
        (addr, join)
    }

    #[test]
    fn a_trickled_response_is_read_whole_within_the_deadline() {
        let line = "{\"id\":\"t\",\"status\":\"ok\",\"cache\":\"-\"}\n";
        let (addr, join) = fake_server(move |mut s| {
            for b in line.as_bytes() {
                s.write_all(&[*b]).expect("trickle");
                thread::sleep(Duration::from_millis(2));
            }
        });
        let mut c = Client::connect(&addr, Some(Duration::from_secs(20))).expect("connect");
        assert_eq!(c.recv().expect("whole line"), line);
        join.join().expect("server");
    }

    #[test]
    fn the_deadline_bounds_the_whole_response_not_each_read() {
        let (addr, join) = fake_server(|mut s| {
            // Every byte arrives well inside the deadline, the line never
            // ends: only a total deadline stops this.
            for _ in 0..400 {
                if s.write_all(b"x").is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
            }
        });
        let deadline = Duration::from_millis(300);
        let mut c = Client::connect(&addr, Some(deadline)).expect("connect");
        let t0 = Instant::now();
        let err = c.recv().expect_err("never a whole line");
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
        assert!(
            t0.elapsed() >= deadline,
            "gave up early: {:?}",
            t0.elapsed()
        );
        assert!(t0.elapsed() < 10 * deadline, "overran: {:?}", t0.elapsed());
        drop(c);
        join.join().expect("server");
    }

    #[test]
    fn a_stalled_response_times_out_at_the_deadline() {
        let (addr, join) = fake_server(|mut s| {
            let mut sink = [0u8; 64];
            let _ = s.read(&mut sink); // the request, then silence
            let _ = s.read(&mut sink); // until the client gives up
        });
        let deadline = Duration::from_millis(200);
        let mut c = Client::connect(&addr, Some(deadline)).expect("connect");
        let t0 = Instant::now();
        let err = c.request("{\"op\":\"ping\"}").expect_err("stalled");
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
        assert!(
            t0.elapsed() >= deadline,
            "gave up early: {:?}",
            t0.elapsed()
        );
        assert!(t0.elapsed() < 10 * deadline, "overran: {:?}", t0.elapsed());
        drop(c);
        join.join().expect("server");
    }

    #[test]
    fn eof_mid_line_is_unexpected_eof() {
        let (addr, join) = fake_server(|mut s| {
            s.write_all(b"{\"id\":\"half").expect("partial line");
        });
        let mut c = Client::connect(&addr, Some(Duration::from_secs(20))).expect("connect");
        let err = c.recv().expect_err("no whole line");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        join.join().expect("server");
    }

    #[test]
    fn pipelined_responses_come_back_one_line_at_a_time() {
        let (addr, join) = fake_server(|mut s| {
            s.write_all(b"{\"n\":1}\n{\"n\":2}\r\n")
                .expect("two lines in one write");
        });
        let mut c = Client::connect(&addr, None).expect("connect");
        assert_eq!(c.recv().expect("first"), "{\"n\":1}\n");
        assert_eq!(c.recv().expect("second"), "{\"n\":2}\r\n");
        join.join().expect("server");
    }

    #[test]
    fn metrics_sends_the_op_line_and_parses_the_exposition() {
        let (addr, join) = fake_server(|mut s| {
            let want = b"{\"op\":\"metrics\",\"id\":\"m\"}\n";
            let mut got = vec![0u8; want.len()];
            s.read_exact(&mut got).expect("request");
            assert_eq!(got, want);
            s.write_all(
                b"{\"id\":\"m\",\"status\":\"ok\",\"cache\":\"-\",\"metrics\":\"x_total 3\\n\"}\n",
            )
            .expect("response");
        });
        let mut c = Client::connect(&addr, Some(Duration::from_secs(20))).expect("connect");
        let snap = c.metrics("m").expect("metrics");
        assert_eq!(snap.value("x_total", &[]), Some(3.0));
        join.join().expect("server");
    }
}
