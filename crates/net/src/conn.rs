//! Per-connection state: nonblocking buffered I/O plus the role state
//! machine (handshake → ingest / subscribe / drain-and-close).

use datacell_basket::{CsvReceptor, ShardedBasket};
use datacell_core::QueryId;
use std::io::{Read, Write};
use std::net::TcpStream;

/// What a connection turned out to be, decided by its first line.
pub(crate) enum Role {
    /// First line not yet seen.
    Handshake,
    /// `INGEST <stream>`: CSV rows into one basket, batched per loop pass.
    Ingest {
        /// The target stream's name (for backlog accounting and logs).
        stream: String,
        /// The stream's ingest edge, shared with the engine.
        basket: ShardedBasket,
        /// Per-connection parser; `pending_rows` is the unflushed batch.
        receptor: CsvReceptor,
    },
    /// `SUBSCRIBE <label>`: result rows out of one query.
    Subscribe {
        /// The query whose drained results fan-out delivers here.
        query: QueryId,
    },
    /// Reply queued (metrics response or `ERR`); flush and close.
    Drain,
}

/// One client connection in the poll loop.
pub(crate) struct Conn {
    pub sock: TcpStream,
    pub peer: String,
    pub role: Role,
    /// Bytes read but not yet consumed as complete lines.
    pub inbuf: ByteQueue,
    /// Bytes queued for the socket and not yet taken by it.
    pub outbuf: ByteQueue,
    /// Close once `outbuf` drains.
    pub close_after_flush: bool,
    /// Peer closed its write side; no more input will arrive.
    pub eof: bool,
    /// Marked for removal by the reap pass.
    pub dead: bool,
}

impl Conn {
    pub(crate) fn new(sock: TcpStream, peer: String) -> Conn {
        Conn {
            sock,
            peer,
            role: Role::Handshake,
            inbuf: ByteQueue::default(),
            outbuf: ByteQueue::default(),
            close_after_flush: false,
            eof: false,
            dead: false,
        }
    }

    /// Is this an ingest connection (subject to backpressure pausing)?
    pub(crate) fn is_ingest(&self) -> bool {
        matches!(self.role, Role::Ingest { .. })
    }

    /// Drain everything currently readable into `inbuf` without blocking.
    /// Returns bytes read this pass; flags `eof` / `dead` as appropriate.
    pub(crate) fn read_available(&mut self) -> usize {
        let before = self.inbuf.bytes.len();
        // `read_to_end` reads straight into the vector's spare capacity
        // (growing it as needed), retries `Interrupted`, and on any other
        // error — `WouldBlock` is how a drained nonblocking socket ends
        // it — leaves what it already read appended.
        match (&self.sock).read_to_end(&mut self.inbuf.bytes) {
            Ok(_) => self.eof = true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => self.dead = true,
        }
        self.inbuf.bytes.len() - before
    }

    /// Write as much of `outbuf` as the socket accepts without blocking.
    /// Returns bytes written; flags `dead` on hard errors or when a
    /// close-after-flush connection finishes draining.
    pub(crate) fn write_available(&mut self) -> usize {
        let pending = self.outbuf.unconsumed();
        let mut written = 0;
        while written < pending.len() {
            match self.sock.write(&pending[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.outbuf.consume(written);
        if self.close_after_flush && self.outbuf.unconsumed().is_empty() {
            self.dead = true;
        }
        written
    }

    /// Queue an `ERR` line and close once it flushes.
    pub(crate) fn fail(&mut self, msg: &str) {
        self.outbuf.push(format!("ERR {msg}\n").as_bytes());
        self.role = Role::Drain;
        self.close_after_flush = true;
    }
}

/// One direction of a connection's bytes: producers (socket reads for
/// input, replies and rendered results for output) append to `bytes`,
/// consumers (the parser, socket writes) take from the front by advancing
/// `start`. The consumed prefix is dropped only when that is free (nothing
/// unconsumed) or pays for itself (it is more than half the buffer), never
/// by a memmove per pass or per partial write.
#[derive(Default)]
pub(crate) struct ByteQueue {
    bytes: Vec<u8>,
    start: usize,
}

impl ByteQueue {
    /// Bytes appended and not yet consumed.
    pub(crate) fn unconsumed(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// Append to the back.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Mark the first `n` unconsumed bytes consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.bytes.len() {
            self.bytes.clear();
            self.start = 0;
        } else if self.start > self.bytes.len() / 2 {
            self.bytes.drain(..self.start);
            self.start = 0;
        }
    }

    /// Pop one complete line (`…\n`) off the front, leaving an
    /// unterminated tail in place. When `take_tail` is set (peer sent EOF)
    /// the tail is returned as a final line too. The line is lossy-decoded
    /// and a stray `\r` (telnet-style `\r\n`) is trimmed. Only the
    /// handshake / `GET` line of a connection comes through here; ingest
    /// rows are parsed from [`ByteQueue::unconsumed`] in place.
    pub(crate) fn take_line(&mut self, take_tail: bool) -> Option<String> {
        let rest = self.unconsumed();
        let (line, used) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (&rest[..nl], nl + 1),
            None if take_tail && !rest.is_empty() => (rest, rest.len()),
            None => return None,
        };
        let line = String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)).into_owned();
        self.consume(used);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbuf(bytes: &[u8]) -> ByteQueue {
        ByteQueue { bytes: bytes.to_vec(), start: 0 }
    }

    #[test]
    fn take_line_keeps_partial_tail() {
        let mut buf = inbuf(b"a,1\nb,2\nc,");
        assert_eq!(buf.take_line(false).as_deref(), Some("a,1"));
        assert_eq!(buf.take_line(false).as_deref(), Some("b,2"));
        assert_eq!(buf.take_line(false), None);
        assert_eq!(buf.unconsumed(), b"c,");
        // More bytes arrive, completing the line.
        buf.push(b"3\n");
        assert_eq!(buf.take_line(false).as_deref(), Some("c,3"));
        assert!(buf.unconsumed().is_empty());
    }

    #[test]
    fn take_line_takes_tail_on_eof() {
        let mut buf = inbuf(b"x,9");
        assert_eq!(buf.take_line(false), None);
        assert_eq!(buf.take_line(true).as_deref(), Some("x,9"));
        assert_eq!(buf.take_line(true), None);
    }

    #[test]
    fn take_line_trims_carriage_returns() {
        let mut buf = inbuf(b"GET /metrics HTTP/1.1\r\nHost: x\r\n");
        assert_eq!(buf.take_line(false).as_deref(), Some("GET /metrics HTTP/1.1"));
        assert_eq!(buf.take_line(false).as_deref(), Some("Host: x"));
    }

    #[test]
    fn consume_compacts_only_when_empty_or_past_half() {
        let mut buf = inbuf(b"0123456789");
        buf.consume(4);
        assert_eq!((buf.start, buf.bytes.len()), (4, 10)); // under half: offset only
        assert_eq!(buf.unconsumed(), b"456789");
        buf.consume(2);
        assert_eq!((buf.start, buf.bytes.as_slice()), (0, &b"6789"[..])); // past half
        buf.consume(4);
        assert_eq!((buf.start, buf.bytes.len()), (0, 0)); // empty: free
    }
}
