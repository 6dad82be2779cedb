//! A keep-alive HTTP/1.1 client over one loopback TCP connection.
//!
//! The connection is reopened when the server answers
//! `Connection: close` (its `max_requests_per_conn` cap); those forced
//! reconnects are counted, not hidden.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: String,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
    /// Reconnects forced by the server closing a kept-alive connection.
    pub reconnects: u64,
    /// Response bytes read (head and body).
    pub resp_bytes: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            reconnects: 0,
            resp_bytes: 0,
        }
    }

    fn open(&mut self) -> io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        s.set_write_timeout(Some(Duration::from_secs(60)))?;
        self.stream = Some((BufReader::new(s.try_clone()?), s));
        Ok(())
    }

    /// Sends one raw request and reads its reply.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            self.open()?;
        }
        let (reader, writer) = self.stream.as_mut().expect("connection was just opened");
        writer.write_all(raw)?;
        let mut line = String::new();
        let mut head_bytes = 0u64;
        head_bytes += reader.read_line(&mut line)? as u64;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            head_bytes += n as u64;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        self.resp_bytes += head_bytes + len as u64;
        if close {
            self.stream = None;
            self.reconnects += 1;
        }
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not UTF-8"))?;
        Ok(Reply { status, body })
    }

    /// Drops the connection after a transport error so the next request
    /// starts clean.
    pub fn reset(&mut self) {
        self.stream = None;
    }
}

/// Percent-encodes a query-string value.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn query(xpath: &str) -> Vec<u8> {
    get(&format!("/query?xp={}", encode(xpath)))
}

pub fn post(target: &str, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/xml\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}
