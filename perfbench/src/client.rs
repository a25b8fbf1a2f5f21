//! A minimal blocking HTTP/1.1 client: one keep-alive connection,
//! `Content-Length` framing, and reconnects when the server announces
//! `Connection: close` (the keep-alive cap), which is not a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// The server asked to close the connection after this response.
    pub close: bool,
}

/// Why a response could not be framed.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The head is not `HTTP/1.x <status> ...` with valid headers.
    Malformed(String),
    /// The response carries no `Content-Length`.
    NoLength,
}

/// Frames one response at the start of `buf`. `Ok(None)` means more
/// bytes are needed; `Ok(Some((response, used)))` consumed `used` bytes.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, FrameError> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| FrameError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(FrameError::Malformed(format!(
            "status line {status_line:?}"
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| FrameError::Malformed(format!("status line {status_line:?}")))?;
    let mut length = None;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| FrameError::Malformed(format!("header {line:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| FrameError::Malformed(format!("content-length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or(FrameError::NoLength)?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + length].to_vec();
    Ok(Some((
        Response {
            status,
            body,
            close,
        },
        body_start + length,
    )))
}

/// Builds a `POST` request with a JSON body.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Builds a `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// One keep-alive connection that reopens itself when the server closes.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`, opened lazily on the first request.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Sends one pre-built request and reads its response. A refused,
    /// reset or timed-out connection is an error; the caller counts it
    /// as a failed operation.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let result = self.exchange(request);
        match &result {
            Ok(resp) if !resp.close => {}
            // Closed by the server, or broken: the next request reconnects.
            _ => self.stream = None,
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match parse_response(&self.buf) {
                Ok(Some((resp, used))) => {
                    self.buf.drain(..used);
                    return Ok(resp);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}"))),
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";

    #[test]
    fn frames_by_content_length_and_leaves_the_rest() {
        let mut buf = OK.to_vec();
        buf.extend_from_slice(b"HTTP/1.1 204");
        let (resp, used) = parse_response(&buf).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"a\":1}");
        assert!(!resp.close);
        assert_eq!(used, OK.len());
    }

    #[test]
    fn split_reads_wait_for_every_byte() {
        for cut in 0..OK.len() {
            assert_eq!(parse_response(&OK[..cut]), Ok(None), "cut at {cut}");
        }
        assert!(parse_response(OK).unwrap().is_some());
    }

    #[test]
    fn connection_close_is_reported() {
        let raw = b"HTTP/1.1 200 OK\r\nconnection: Close\r\ncontent-length: 2\r\n\r\nhi";
        let (resp, _) = parse_response(raw).unwrap().unwrap();
        assert!(resp.close);
        assert_eq!(resp.body, b"hi");
        let raw = b"HTTP/1.0 503 Busy\r\nContent-Length: 0\r\n\r\n";
        let (resp, _) = parse_response(raw).unwrap().unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.close, "HTTP/1.0 closes by default");
    }

    #[test]
    fn unframed_or_garbled_heads_are_errors() {
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\n\r\n"),
            Err(FrameError::NoLength)
        );
        assert!(matches!(
            parse_response(b"SMTP 220 hi\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn keep_alive_cap_reconnects_without_error() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Serves two connections: the first answers one request and
        // closes, the second answers one request in two writes. The
        // second answer arrives only if the client reconnected.
        let server = std::thread::spawn(move || {
            for reply in [
                &b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\na"[..],
                &b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"[..],
            ] {
                let (mut s, _) = listener.accept().unwrap();
                let mut req = [0u8; 1024];
                let _ = s.read(&mut req).unwrap();
                let (head, tail) = reply.split_at(10);
                s.write_all(head).unwrap();
                s.flush().unwrap();
                s.write_all(tail).unwrap();
            }
        });
        let mut conn = Conn::new(addr);
        assert_eq!(conn.send(&get("/x")).unwrap().body, b"a");
        assert_eq!(conn.send(&get("/x")).unwrap().body, b"b");
        server.join().unwrap();
    }
}
