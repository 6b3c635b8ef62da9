//! A minimal blocking HTTP/1.1 keep-alive client for the loopback
//! server: one request at a time (closed loop), `Content-Length`
//! framing, reconnecting when the server closes a connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// One named phase of the `Server-Timing` header (`total` for the
    /// whole handler), in ms.
    pub fn server_phase_ms(&self, phase: &str) -> Option<f64> {
        self.header("Server-Timing")?.split(',').find_map(|entry| {
            let (name, duration) = entry.trim().split_once(";dur=")?;
            (name == phase).then(|| duration.parse().ok()).flatten()
        })
    }

    /// The body as text (every ezrt response body is UTF-8).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A keep-alive connection that reopens itself after the server closes.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Larger announced bodies are refused rather than allocated.
const MAX_BODY: usize = 64 << 20;

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn connection(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads its response. `headers` are extra
    /// request headers.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Response> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let result = self.exchange(head.as_bytes(), body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, head: &[u8], body: &[u8]) -> std::io::Result<Response> {
        let reader = self.connection()?;
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head);
        out.extend_from_slice(body);
        reader.get_mut().write_all(&out)?;
        let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut headers = Vec::new();
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed inside a response head"));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let (name, value) = trimmed
                .split_once(':')
                .ok_or_else(|| invalid("malformed header"))?;
            let value = value.trim().to_owned();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
            headers.push((name.to_owned(), value));
        }
        if length > MAX_BODY {
            return Err(invalid("response body too large"));
        }
        // A 304 announces the length of the representation it stands
        // for but carries no body.
        let mut body = vec![0u8; if status == 304 { 0 } else { length }];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}
