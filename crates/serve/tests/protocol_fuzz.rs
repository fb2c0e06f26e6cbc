//! Seeded no-panic property for the wire protocol: whatever bytes a
//! client sends — random byte lines, invalid UTF-8, byte mutations of
//! real `HELLO`/`PING`/`WAIT`/`QUIT` lines — every non-blank line gets
//! exactly one reply line and the server keeps serving. Statement text
//! past the protocol verbs is `mlss-db`'s `parse_fuzz`.
//!
//! Inputs come from a pinned ChaCha seed, so a failure names a
//! reproducible line.

use mlss_core::rng::{rng_from_seed, SimRng};
use mlss_db::{Session, SessionConfig};
use mlss_serve::{ServeConfig, Server};
use rand::RngExt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// The protocol's own request lines (everything else is a statement).
const VERBS: &[&[u8]] = &[b"HELLO alpha", b"PING", b"WAIT 1", b"QUIT"];

/// One connection, handshaken as `alpha`.
struct Conn {
    out: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Self {
        let out = TcpStream::connect(addr).unwrap();
        out.set_nodelay(true).unwrap();
        // A line the server never answers fails the test, not the CI job.
        out.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let replies = BufReader::new(out.try_clone().unwrap());
        let mut conn = Conn { out, replies };
        assert!(conn.send(b"HELLO alpha").starts_with("OK hello"));
        conn
    }

    /// Send one request line and read one reply line.
    fn send(&mut self, line: &[u8]) -> String {
        self.out.write_all(&[line, b"\n"].concat()).unwrap();
        let mut reply = Vec::new();
        self.replies
            .read_until(b'\n', &mut reply)
            .unwrap_or_else(|e| panic!("no reply to {:?}: {e}", String::from_utf8_lossy(line)));
        assert_eq!(
            reply.last(),
            Some(&b'\n'),
            "connection ended on {:?}",
            String::from_utf8_lossy(line)
        );
        String::from_utf8(reply).expect("replies are UTF-8")
    }
}

fn random_byte(rng: &mut SimRng) -> u8 {
    loop {
        let b = rng.random_range(0..256u32) as u8;
        if b != b'\n' {
            return b;
        }
    }
}

/// A line of 1–64 random bytes.
fn random_line(rng: &mut SimRng) -> Vec<u8> {
    let len = rng.random_range(1..65usize);
    (0..len).map(|_| random_byte(rng)).collect()
}

/// A verb line with 1–3 bytes overwritten, inserted or deleted.
fn mutated_verb(rng: &mut SimRng) -> Vec<u8> {
    let mut line = VERBS[rng.random_range(0..VERBS.len())].to_vec();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..line.len() + 1);
        match rng.random_range(0..3u32) {
            0 if at < line.len() => line[at] = random_byte(rng),
            1 => line.insert(at, random_byte(rng)),
            _ if at < line.len() => {
                line.remove(at);
            }
            _ => line.push(random_byte(rng)),
        }
    }
    line
}

/// The server skips blank lines without a reply.
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// A line the server answers with `OK bye` and a closed connection.
fn is_quit(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|s| {
        s.split_whitespace()
            .next()
            .is_some_and(|head| head.eq_ignore_ascii_case("QUIT"))
    })
}

#[test]
fn arbitrary_request_lines_each_get_one_reply_and_the_server_keeps_serving() {
    let session = Arc::new(Session::new(SessionConfig::default()).unwrap());
    let server = Server::start(Arc::clone(&session), ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let mut conn = Conn::open(&addr);
    // Invalid UTF-8 is a malformed line like any other.
    let reply = conn.send(b"PING \xff\xfe");
    assert_eq!(reply.trim_end(), "ERR request is not valid UTF-8");

    let mut rng = rng_from_seed(0x5052_4f54);
    for i in 0..4_000 {
        let line = if i % 2 == 0 {
            random_line(&mut rng)
        } else {
            mutated_verb(&mut rng)
        };
        if is_blank(&line) {
            continue;
        }
        let reply = conn.send(&line);
        // No request here is a valid statement, so every reply is a
        // single terminator line, never a `COLS`/`ROW` run.
        assert!(
            ["OK ", "ERR ", "SHED "]
                .iter()
                .any(|t| reply.starts_with(t)),
            "line {i} {:?} got {reply:?}",
            String::from_utf8_lossy(&line)
        );
        if is_quit(&line) {
            assert_eq!(reply.trim_end(), "OK bye");
            conn = Conn::open(&addr);
        }
    }
    assert_eq!(conn.send(b"PING").trim_end(), "OK pong");
}
