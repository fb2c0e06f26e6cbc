//! A minimal blocking protocol client, shared by `sql_shell --connect`,
//! the serve crate's socket tests and perfbench's served workload.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One response from the server (everything up to a terminator line).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `COLS`/`ROW` lines followed by `OK <n>`.
    Rows {
        /// Column names.
        columns: Vec<String>,
        /// Row cells, pre-formatted by the server.
        rows: Vec<Vec<String>>,
    },
    /// A bare `OK …` terminator (affected counts, acks, WAIT results);
    /// carries the text after `OK`.
    Ok(String),
    /// `ERR <message>`.
    Err(String),
    /// `SHED RETRY AFTER <seconds>` — the request was not executed.
    Shed {
        /// Suggested back-off in seconds.
        retry_after: u64,
    },
}

impl Response {
    /// Was the request admitted and successful?
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Rows { .. } | Response::Ok(_))
    }
}

/// A connected, handshaken protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` and handshake as `tenant`. Fails if the server
    /// rejects the tenant (strict allowlists) or sheds the connection.
    pub fn connect(addr: &str, tenant: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        match client.request(&format!("HELLO {tenant}"))? {
            Response::Ok(_) => Ok(client),
            Response::Err(e) => Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("handshake rejected: {e}"),
            )),
            Response::Shed { retry_after } => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                format!("server shed the connection; retry after {retry_after}s"),
            )),
            Response::Rows { .. } => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "unexpected rows in handshake",
            )),
        }
    }

    /// Send one request line and read the full response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut columns: Vec<String> = Vec::new();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut saw_cols = false;
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let line = buf.trim_end_matches(['\n', '\r']);
            if let Some(rest) = line.strip_prefix("COLS ") {
                columns = rest.split('\t').map(str::to_string).collect();
                saw_cols = true;
            } else if let Some(rest) = line.strip_prefix("ROW ") {
                rows.push(rest.split('\t').map(str::to_string).collect());
            } else if line == "ROW" {
                rows.push(Vec::new());
            } else if let Some(rest) = line.strip_prefix("OK") {
                if saw_cols {
                    return Ok(Response::Rows { columns, rows });
                }
                return Ok(Response::Ok(rest.trim().to_string()));
            } else if let Some(rest) = line.strip_prefix("ERR") {
                return Ok(Response::Err(rest.trim().to_string()));
            } else if let Some(rest) = line.strip_prefix("SHED RETRY AFTER") {
                let retry_after = rest.trim().parse().unwrap_or(1);
                return Ok(Response::Shed { retry_after });
            } else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected protocol line: {line:?}"),
                ));
            }
        }
    }

    /// `PING` round-trip.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        Ok(matches!(self.request("PING")?, Response::Ok(s) if s == "pong"))
    }

    /// Polite close (`QUIT`); dropping the client just closes the socket.
    pub fn quit(mut self) -> std::io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}
