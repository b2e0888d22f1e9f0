//! A small blocking client for the `msj serve` protocol.
//!
//! Shared by the `msj client` CLI mode and the end-to-end tests in
//! `tests/server.rs` — one implementation of the framing rules (strip
//! one [`BODY_PREFIX`] per body line, stop at `OK`/`ERR`) instead of two.
//!
//! [`BODY_PREFIX`]: super::protocol::BODY_PREFIX

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use super::protocol::{parse_response_line, ResponseLine};

/// The terminal outcome of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The request succeeded: the reassembled body (prefixes stripped,
    /// byte-identical to the CLI's stdout for a query) and the server's
    /// data-row count.
    Ok {
        /// The response body, newline-terminated lines concatenated.
        body: String,
        /// Data rows the server reported in its `OK` terminator.
        rows: u64,
    },
    /// The request failed: the protocol error code and message.
    Err {
        /// A stable code — `PROTO` or [`crate::engine::EngineError::code`].
        code: String,
        /// The human-readable single-line message.
        message: String,
    },
}

impl Reply {
    /// The body of a successful reply, or `None` for an error.
    pub fn body(&self) -> Option<&str> {
        match self {
            Reply::Ok { body, .. } => Some(body),
            Reply::Err { .. } => None,
        }
    }
}

/// One connection to a running `msj serve`.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171` or a bound
    /// [`std::net::SocketAddr`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one raw request line (the newline is added here).
    pub fn send(&mut self, request: &str) -> io::Result<()> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads and classifies the next response line. `UnexpectedEof` when
    /// the server hung up, `InvalidData` when a line violates the
    /// framing.
    pub fn read_line(&mut self) -> io::Result<ResponseLine> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let line = line.trim_end_matches('\n');
        parse_response_line(line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unframed response line: {line:?}"),
            )
        })
    }

    /// Sends one request and collects its whole response.
    pub fn request(&mut self, request: &str) -> io::Result<Reply> {
        self.send(request)?;
        self.read_reply()
    }

    /// Collects body lines until a terminator (for use after [`send`]).
    ///
    /// [`send`]: Client::send
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let mut body = String::new();
        loop {
            match self.read_line()? {
                ResponseLine::Body(line) => {
                    body.push_str(&line);
                    body.push('\n');
                }
                ResponseLine::Ok(rows) => return Ok(Reply::Ok { body, rows }),
                ResponseLine::Err(code, message) => return Ok(Reply::Err { code, message }),
            }
        }
    }

    /// The underlying stream — the tests use this to drop the read side
    /// abruptly (simulating a vanished client) while keeping the handle.
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }
}
