//! A minimal HTTP/1.1 client for `relgo-server`: one request at a time
//! over a connection, `Content-Length` framing, and the server's
//! `Connection` decision reported back so the caller can reconnect.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server will close the connection after this response.
    pub closing: bool,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request and read its response. `close` asks the server to
    /// close the connection after answering.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<Response> {
        let connection = if close { "close" } else { "keep-alive" };
        let req = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a response"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        let mut closing = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    closing = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok(Response {
            status,
            body,
            closing,
        })
    }
}

/// One request on a fresh connection that closes after the response.
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<Response> {
    Conn::connect(addr)?.request(method, target, body, true)
}
