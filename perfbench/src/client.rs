//! A minimal HTTP/1.1 keep-alive client: one persistent connection,
//! requests written in one piece, responses framed by `Content-Length`.
//! It sets no socket options, so it sees the daemon's responses exactly
//! as any ordinary keep-alive client would.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a request may wait for its response.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Largest response body accepted.
const MAX_BODY: usize = 64 << 20;

pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

/// A response: status and body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_owned(),
            reader: None,
        }
    }

    fn stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.reader = Some(BufReader::new(s));
        }
        Ok(self.reader.as_mut().expect("connected above"))
    }

    /// Sends one request on the persistent connection and reads the reply.
    /// On any I/O error the connection is dropped (the next request
    /// reconnects) and the error returned.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok((_, close)) if !close => {}
            _ => self.reader = None,
        }
        result.map(|(reply, _)| reply)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(Reply, bool)> {
        let body = body.unwrap_or("");
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = self.stream()?;
        r.get_mut().write_all(msg.as_bytes())?;
        let mut line = String::new();
        r.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line `{}`", line.trim())))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head".into()));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.parse::<usize>().ok();
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length
            .filter(|&n| n <= MAX_BODY)
            .ok_or_else(|| bad("response without a Content-Length up to 64 MiB".into()))?;
        let mut body = vec![0u8; length];
        r.read_exact(&mut body)?;
        Ok((Reply { status, body }, close))
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
