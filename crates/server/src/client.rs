//! A small blocking client for the `qob` wire protocol.
//!
//! Used by `qob connect`, `qob top`, `qob bench-load`, the integration
//! tests and the benchmark.  One request goes out as a JSON line, one
//! response line comes back; the transport never pipelines, so a
//! [`Client`] is strictly sequential.  Each request line, newline
//! included, leaves in one write on a `TCP_NODELAY` socket: a line split
//! over two writes on a Nagle socket would hold its second part until the
//! server's delayed ACK of the first, about 40 ms on Linux.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::protocol::Request;

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server at `addr` (e.g. `127.0.0.1:4547`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Retries [`Client::connect`] until `deadline` elapses — the way tests
    /// and scripts wait for a server that is still loading its snapshot.
    pub fn connect_with_retry(addr: &str, deadline: Duration) -> std::io::Result<Client> {
        let started = Instant::now();
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if started.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Json> {
        self.send_line(request.to_json().to_string())
    }

    /// Sends a raw line (used to exercise protocol errors) and blocks for
    /// the response.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<Json> {
        self.send_line(line.to_owned())
    }

    /// Convenience: run a SQL script, returning the parsed response.
    pub fn query(&mut self, sql: &str) -> std::io::Result<Json> {
        self.request(&Request::Query { sql: sql.to_owned() })
    }

    /// Sends `line` and its newline in a single write, so no part of the
    /// request waits behind the ACK of another, then reads the response.
    fn send_line(&mut self, mut line: String) -> std::io::Result<Json> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        Json::parse(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response line: {e}"),
            )
        })
    }
}
