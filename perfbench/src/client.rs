//! A minimal pipelining HTTP/1.1 client over one keep-alive connection.
//!
//! Requests are written as prebuilt wire bytes; responses are framed by
//! `Content-Length` straight out of the receive buffer, so a pipelined
//! window costs one `read` per batch of responses and no allocation per
//! response.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a connection waits for a response before the run fails.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    /// Connects to `addr` with Nagle off and [`IO_TIMEOUT`] on reads and
    /// writes.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Writes one request's bytes.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Reads the next response: its status and its body, borrowed from the
    /// receive buffer until the next call.
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        loop {
            if let Some((status, body_start, body_end)) = frame(&self.buf[self.start..self.end])? {
                let (b0, b1) = (self.start + body_start, self.start + body_end);
                self.start += body_end;
                return Ok((status, &self.buf[b0..b1]));
            }
            self.fill()?;
        }
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        self.send(&crate::workload::wire(method, path, body))?;
        let (status, body) = self.recv()?;
        Ok((status, body.to_vec()))
    }

    fn fill(&mut self) -> io::Result<()> {
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
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }
}

/// Frames one response at the front of `buf`: `(status, body start, body
/// end)`, or `None` when more bytes are needed.
fn frame(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let status = head
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            length = std::str::from_utf8(&line[15..])
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok());
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((status, body_start, body_start + length)))
}

#[cfg(test)]
mod tests {
    use super::frame;

    #[test]
    fn frames_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n";
        let (status, b0, b1) = frame(two).unwrap().unwrap();
        assert_eq!((status, &two[b0..b1]), (200, &b"ok"[..]));
        let (status, b0, b1) = frame(&two[b1..]).unwrap().unwrap();
        assert_eq!((status, b1 - b0), (429, 0));
        assert!(frame(&two[..20]).unwrap().is_none());
    }
}
