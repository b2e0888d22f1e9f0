//! The ledger's own wire client. `docs/SERVICE.md` is the contract; no
//! library type sits on the measured path. A response is zero or more body
//! lines, each prefixed `|`, then one control line `OK <rows>` or
//! `ERR <code> <message>`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One framed response, with the two instants the latency metrics need.
#[derive(Debug)]
pub struct Reply {
    /// `Ok(n)` for `OK n`, `Err(text)` for `ERR text`.
    pub status: Result<u64, String>,
    /// Body lines that are data rows (not `|#` header / marker lines).
    pub data_lines: u64,
    /// FNV-1a over every body byte as received (prefixes and newlines too).
    pub hash: u64,
    pub body_bytes: u64,
    /// When the first data row was complete (`done` for a body without
    /// rows). Not the first body byte: that is the `|#` header line, which a
    /// streaming response flushes before it has probed anything.
    pub first_row: Instant,
    /// When the control line was complete.
    pub done: Instant,
    /// The body bytes, when the caller asked to keep them.
    pub body: Option<Vec<u8>>,
}

impl Reply {
    /// True for `OK` with a row count equal to the data lines received.
    pub fn is_consistent(&self) -> bool {
        self.status.as_ref().is_ok_and(|&n| n == self.data_lines)
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes `start..end` of `buf` are received but not yet consumed.
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        Conn::over(TcpStream::connect(addr)?)
    }

    pub fn over(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        })
    }

    /// Sends one request line; returns the instant just before the write.
    pub fn send(&mut self, line: &str) -> io::Result<Instant> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let sent = Instant::now();
        self.stream.write_all(&bytes)?;
        Ok(sent)
    }

    /// Reads one response up to and including its control line.
    pub fn recv(&mut self, keep_body: bool) -> io::Result<Reply> {
        let mut first_row = None;
        let mut hash = FNV_OFFSET;
        let (mut data_lines, mut body_bytes) = (0u64, 0u64);
        let mut body = keep_body.then(Vec::new);
        loop {
            while let Some(nl) = self.buf[self.start..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = &self.buf[self.start..self.start + nl + 1];
                self.start += nl + 1;
                if line[0] == b'|' {
                    hash = fnv1a(hash, line);
                    body_bytes += line.len() as u64;
                    if line.get(1) != Some(&b'#') {
                        data_lines += 1;
                        first_row.get_or_insert_with(Instant::now);
                    }
                    if let Some(body) = &mut body {
                        body.extend_from_slice(line);
                    }
                    continue;
                }
                let done = Instant::now();
                let text = String::from_utf8_lossy(&line[..nl]);
                let status = match text.trim_end().split_once(' ') {
                    Some(("OK", n)) => n.parse().map_err(|_| format!("bad OK line {text:?}")),
                    Some(("ERR", rest)) => Err(rest.to_string()),
                    _ => Err(format!("bad control line {text:?}")),
                };
                return Ok(Reply {
                    status,
                    data_lines,
                    hash,
                    body_bytes,
                    first_row: first_row.unwrap_or(done),
                    done,
                    body,
                });
            }
            // No complete line buffered: make room, then read more.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        }
    }

    /// One closed-loop round trip: the send instant and the reply.
    pub fn request(&mut self, line: &str, keep_body: bool) -> io::Result<(Instant, Reply)> {
        let sent = self.send(line)?;
        Ok((sent, self.recv(keep_body)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    /// A scripted peer: reads one request line, then writes each chunk with a
    /// pause before it.
    fn scripted(chunks: Vec<(u64, &'static [u8])>) -> (Conn, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut req = Vec::new();
            let mut byte = [0u8; 1];
            while s.read_exact(&mut byte).is_ok() {
                req.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
            }
            for (pause_ms, chunk) in chunks {
                std::thread::sleep(Duration::from_millis(pause_ms));
                s.write_all(chunk).unwrap();
            }
            req
        });
        (Conn::connect(&addr).unwrap(), peer)
    }

    #[test]
    fn frames_body_lines_and_ok() {
        let (mut conn, peer) = scripted(vec![(0, b"|# a\tb\n|1\t2\n|3\t"), (0, b"4\nOK 2\n")]);
        let (_, reply) = conn.request("Q R(a, b)", true).unwrap();
        assert_eq!(peer.join().unwrap(), b"Q R(a, b)\n");
        assert_eq!(reply.status, Ok(2));
        assert_eq!(reply.data_lines, 2, "the |# header is not a data row");
        assert!(reply.is_consistent());
        let body = b"|# a\tb\n|1\t2\n|3\t4\n";
        assert_eq!(reply.body.as_deref(), Some(&body[..]));
        assert_eq!(reply.body_bytes, body.len() as u64);
        assert_eq!(
            reply.hash,
            fnv1a(FNV_OFFSET, body),
            "split lines hash alike"
        );
    }

    #[test]
    fn err_line_and_row_count_mismatch() {
        let (mut conn, peer) = scripted(vec![(0, b"ERR PARSE unknown relation Z\n")]);
        let (_, reply) = conn.request("Q Z(a)", false).unwrap();
        peer.join().unwrap();
        assert_eq!(reply.status, Err("PARSE unknown relation Z".to_string()));
        assert!(!reply.is_consistent());
        assert_eq!((reply.data_lines, reply.body_bytes), (0, 0));

        let (mut conn, peer) = scripted(vec![(0, b"|1\nOK 2\n")]);
        let (_, reply) = conn.request("Q R(a)", false).unwrap();
        peer.join().unwrap();
        assert!(!reply.is_consistent(), "OK 2 over one data line");
    }

    #[test]
    fn first_row_is_stamped_after_the_header_and_before_the_tail() {
        let (mut conn, peer) = scripted(vec![(0, b"|# a\n"), (40, b"|1\n"), (60, b"|2\nOK 2\n")]);
        let (sent, reply) = conn.request("EXEC hot", false).unwrap();
        peer.join().unwrap();
        let first = reply.first_row.duration_since(sent);
        let total = reply.done.duration_since(sent);
        assert!(
            first >= Duration::from_millis(40),
            "the header is not a row: {first:?}"
        );
        assert!(
            total >= first + Duration::from_millis(50),
            "{first:?} {total:?}"
        );

        let (mut conn, peer) = scripted(vec![(0, b"|# a\nOK 0\n")]);
        let (_, reply) = conn.request("EXEC hot", false).unwrap();
        peer.join().unwrap();
        assert_eq!(
            reply.first_row, reply.done,
            "no rows: the control line stands in"
        );
    }

    #[test]
    fn a_closed_peer_is_an_io_error_not_a_hang() {
        let (mut conn, peer) = scripted(vec![(0, b"|1\n")]);
        assert!(conn.request("Q R(a)", false).is_err());
        peer.join().unwrap();
    }

    #[test]
    fn pipelined_responses_are_split_at_the_control_line() {
        let (mut conn, peer) = scripted(vec![(0, b"OK 0\n|7\nOK 1\n")]);
        conn.send("PING").unwrap();
        assert_eq!(conn.recv(false).unwrap().status, Ok(0));
        let second = conn.recv(false).unwrap();
        peer.join().unwrap();
        assert_eq!((second.status, second.data_lines), (Ok(1), 1));
    }
}
