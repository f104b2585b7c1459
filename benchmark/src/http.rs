//! A minimal HTTP/1.1 client over one keep-alive `TcpStream`.
//!
//! The benchmark's own, not `deptree::serve::client`: the load generator
//! must stay fixed while the program under test changes. One frame per
//! `write_all` and `TCP_NODELAY`, like the server, so a reused socket
//! never waits on Nagle plus delayed ACK.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest any single socket read or write may block.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A client connection that dials lazily, reuses its socket while the
/// server keeps it alive, and redials after `Connection: close`.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous reply.
    buf: Vec<u8>,
    /// Whether the open socket has already carried a reply.
    reused: bool,
    /// Connections dialed so far.
    pub dials: u64,
}

impl Conn {
    /// A connection to `addr`; nothing is dialed until the first request.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
            reused: false,
            dials: 0,
        }
    }

    /// Send one request and read its reply. `close` asks the server to
    /// close the connection behind the reply.
    ///
    /// A reused socket the server closed while it sat idle fails before
    /// any reply byte arrives; that one case is retried once on a fresh
    /// socket, as any HTTP client does.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> io::Result<Reply> {
        let mut frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
            self.addr,
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        )
        .into_bytes();
        frame.extend_from_slice(body);
        let reused = self.reused;
        let result = match self.exchange(&frame) {
            Err((_, false)) if reused => self.exchange(&frame),
            other => other,
        };
        if close {
            self.drop_stream();
        }
        result.map_err(|(e, _)| e)
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        self.buf.clear();
        self.reused = false;
    }

    /// One write-then-read exchange. On error, the flag says whether any
    /// reply byte had arrived; the socket is dropped either way.
    fn exchange(&mut self, frame: &[u8]) -> Result<Reply, (io::Error, bool)> {
        let result = self.try_exchange(frame);
        match &result {
            Ok(_) => self.reused = self.stream.is_some(),
            Err(_) => self.drop_stream(),
        }
        result
    }

    fn try_exchange(&mut self, frame: &[u8]) -> Result<Reply, (io::Error, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| (e, false))?;
            stream.set_nodelay(true).map_err(|e| (e, false))?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| (e, false))?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| (e, false))?;
            self.stream = Some(stream);
            self.dials += 1;
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err((io::Error::other("no socket"), false));
        };
        stream.write_all(frame).map_err(|e| (e, false))?;

        // Head: read until the blank line.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(at) = find(&self.buf[scanned..], b"\r\n\r\n") {
                break scanned + at + 4;
            }
            scanned = self.buf.len().saturating_sub(3);
            let got_any = !self.buf.is_empty();
            if fill(stream, &mut self.buf).map_err(|e| (e, got_any))? == 0 {
                return Err((eof(), got_any));
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| (bad("reply head is not UTF-8"), true))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| (bad("bad status line"), true))?;
        let mut length = None;
        let mut keep_alive = true;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "content-length" {
                length = value.parse::<usize>().ok();
            } else if name == "connection" {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| (bad("reply has no Content-Length"), true))?;

        // Body: exactly `length` bytes after the head.
        while self.buf.len() < head_end + length {
            if fill(stream, &mut self.buf).map_err(|e| (e, true))? == 0 {
                return Err((eof(), true));
            }
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        if !keep_alive {
            self.drop_stream();
        }
        Ok(Reply { status, body })
    }
}

/// Read once from `stream`, appending to `buf`; returns the byte count.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
