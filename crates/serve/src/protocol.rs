//! The wire protocol: length-prefixed `u64`-word frames.
//!
//! Everything on the wire is little-endian `u64` words — the same
//! currency as the class store and the ball wire form
//! ([`lad_core::served`]) — so a frame is `[word count][words…]` and the
//! whole protocol stays self-describing and alignment-friendly.
//!
//! ## Requests
//!
//! ```text
//! [REQ_BATCH, query count, per query: word count, ball words…]
//! [REQ_INFO]
//! [REQ_SHUTDOWN]
//! ```
//!
//! ## Responses
//!
//! ```text
//! [RESP_BATCH, result count, per result:
//!     RES_OK, word count, answer words…
//!   | RES_NEED_RADIUS, radius
//!   | RES_ERROR, code, string words…]
//! [RESP_INFO, schema digest, radius, class count, string words…]  (name)
//! [RESP_ERROR, code, string words…]
//! [RESP_BYE]
//! ```
//!
//! Strings travel as `[byte length, ceil(len/8) packed words…]`. Error
//! codes are typed ([`ERR_MALFORMED_QUERY`] …): a client can branch on
//! the code and log the message. Every parse path returns
//! `InvalidData`-style errors; nothing in this module panics on wire
//! bytes.

use std::io::{self, Read, Write};

/// Hard ceiling on a frame's word count (32 M words = 256 MB): a corrupt
/// or hostile length prefix must not drive an unbounded allocation.
pub const MAX_FRAME_WORDS: u64 = 1 << 25;

/// Request tag: a batch of decode queries.
pub const REQ_BATCH: u64 = 1;
/// Request tag: describe the loaded dictionary.
pub const REQ_INFO: u64 = 2;
/// Request tag: stop the server loop.
pub const REQ_SHUTDOWN: u64 = 3;

/// Response tag: per-query results for a [`REQ_BATCH`].
pub const RESP_BATCH: u64 = 1;
/// Response tag: dictionary description for a [`REQ_INFO`].
pub const RESP_INFO: u64 = 2;
/// Response tag: the request itself could not be served.
pub const RESP_ERROR: u64 = 3;
/// Response tag: shutdown acknowledged.
pub const RESP_BYE: u64 = 4;

/// Per-query result tag: answer words follow.
pub const RES_OK: u64 = 0;
/// Per-query result tag: re-query with a deeper ball.
pub const RES_NEED_RADIUS: u64 = 1;
/// Per-query result tag: typed error (code + message follow).
pub const RES_ERROR: u64 = 2;

/// Error code: the query ball did not parse.
pub const ERR_MALFORMED_QUERY: u64 = 1;
/// Error code: the decoder rejected the query (bad advice, failed class).
pub const ERR_DECODE: u64 = 2;
/// Error code: the dictionary disagrees with live evaluation — stale or
/// mismatched store.
pub const ERR_STALE_DICTIONARY: u64 = 3;
/// Error code: the request frame itself was malformed.
pub const ERR_BAD_REQUEST: u64 = 4;
/// Error code: every connection worker is taken; the server closes the
/// connection after this frame. Retry later.
pub const ERR_BUSY: u64 = 5;

/// Bytes a frame's payload is read in at most at a time. The word buffer
/// grows only as payload arrives, so a bare length prefix claiming
/// [`MAX_FRAME_WORDS`] costs one step, not the claimed size.
const READ_STEP_BYTES: usize = 8 << 10;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one `[word count][words…]` frame.
///
/// # Errors
///
/// I/O failure, or a frame larger than [`MAX_FRAME_WORDS`].
pub fn write_frame(w: &mut impl Write, words: &[u64]) -> io::Result<()> {
    if words.len() as u64 > MAX_FRAME_WORDS {
        return Err(bad(format!(
            "frame of {} words exceeds the cap",
            words.len()
        )));
    }
    let mut bytes = Vec::with_capacity(8 * (words.len() + 1));
    bytes.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for &word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    w.write_all(&bytes)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before the first byte.
///
/// # Errors
///
/// I/O failure, a frame truncated anywhere after its first byte
/// (`UnexpectedEof`), or a length prefix beyond [`MAX_FRAME_WORDS`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u64>>> {
    let mut len_bytes = [0u8; 8];
    // Only EOF before the first byte is clean; `read_exact` on the rest
    // turns a cut inside the prefix into `UnexpectedEof`.
    loop {
        match r.read(&mut len_bytes[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME_WORDS {
        return Err(bad(format!("frame length {len} exceeds the cap")));
    }
    let mut remaining = len as usize * 8;
    let mut words = Vec::with_capacity(remaining.min(READ_STEP_BYTES) / 8);
    let mut step = [0u8; READ_STEP_BYTES];
    while remaining > 0 {
        let chunk = &mut step[..remaining.min(READ_STEP_BYTES)];
        r.read_exact(chunk)?;
        words.extend(
            chunk
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunk"))),
        );
        remaining -= chunk.len();
    }
    Ok(Some(words))
}

/// Appends a string as `[byte length, packed words…]`.
pub fn push_string(words: &mut Vec<u64>, s: &str) {
    let bytes = s.as_bytes();
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
}

/// Reads a string written by [`push_string`].
///
/// # Errors
///
/// `InvalidData` on truncation or non-UTF-8 content.
pub fn read_string(it: &mut std::slice::Iter<'_, u64>) -> io::Result<String> {
    let len = usize::try_from(*it.next().ok_or_else(|| bad("string truncated"))?)
        .map_err(|_| bad("string length overflows"))?;
    let word_count = len.div_ceil(8);
    if word_count > it.len() {
        return Err(bad("string payload truncated"));
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..word_count {
        bytes.extend_from_slice(&it.next().expect("checked above").to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).map_err(|_| bad("string is not UTF-8"))
}

/// Encodes a batch request from per-query ball words.
pub fn encode_batch_request(queries: &[Vec<u64>]) -> Vec<u64> {
    let total: usize = queries.iter().map(|q| q.len() + 1).sum();
    let mut words = Vec::with_capacity(2 + total);
    words.push(REQ_BATCH);
    words.push(queries.len() as u64);
    for q in queries {
        words.push(q.len() as u64);
        words.extend_from_slice(q);
    }
    words
}

/// One decoded per-query result, as a client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult {
    /// The query was answered; schema-specific answer words.
    Answer(Vec<u64>),
    /// The class needs a deeper view — re-send the query at this radius.
    NeedRadius(usize),
    /// The server refused the query with a typed error.
    ServerError {
        /// One of the `ERR_*` codes.
        code: u64,
        /// Human-readable detail.
        message: String,
    },
}

/// Decodes a [`RESP_BATCH`] frame into per-query results.
///
/// # Errors
///
/// `InvalidData` when the frame is not a well-formed batch response.
pub fn decode_batch_response(frame: &[u64]) -> io::Result<Vec<BatchResult>> {
    let mut it = frame.iter();
    match it.next() {
        Some(&RESP_BATCH) => {}
        Some(&RESP_ERROR) => {
            let code = *it.next().ok_or_else(|| bad("error response truncated"))?;
            let message = read_string(&mut it)?;
            return Err(bad(format!("server error {code}: {message}")));
        }
        _ => return Err(bad("not a batch response")),
    }
    let count = usize::try_from(*it.next().ok_or_else(|| bad("batch response truncated"))?)
        .map_err(|_| bad("result count overflows"))?;
    let mut results = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let tag = *it.next().ok_or_else(|| bad("result truncated"))?;
        results.push(match tag {
            RES_OK => {
                let len = usize::try_from(*it.next().ok_or_else(|| bad("answer truncated"))?)
                    .map_err(|_| bad("answer length overflows"))?;
                let rest = it.as_slice();
                if len > rest.len() {
                    return Err(bad("answer words truncated"));
                }
                let answer = rest[..len].to_vec();
                it = rest[len..].iter();
                BatchResult::Answer(answer)
            }
            RES_NEED_RADIUS => BatchResult::NeedRadius(
                usize::try_from(*it.next().ok_or_else(|| bad("radius truncated"))?)
                    .map_err(|_| bad("radius overflows"))?,
            ),
            RES_ERROR => {
                let code = *it.next().ok_or_else(|| bad("error code truncated"))?;
                let message = read_string(&mut it)?;
                BatchResult::ServerError { code, message }
            }
            _ => return Err(bad("unknown result tag")),
        });
    }
    if it.next().is_some() {
        return Err(bad("trailing words in batch response"));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).expect("write");
        write_frame(&mut buf, &[]).expect("write empty");
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("read"), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut cursor).expect("read"), Some(vec![]));
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(bytes)).expect_err("cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Yields a length prefix claiming [`MAX_FRAME_WORDS`] and then EOF,
    /// refusing any read buffer larger than one step.
    struct BareHeader {
        header: Vec<u8>,
        largest_read: usize,
    }

    impl Read for BareHeader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(
                buf.len() <= READ_STEP_BYTES,
                "handed a {}-byte read buffer",
                buf.len()
            );
            self.largest_read = self.largest_read.max(buf.len());
            let n = buf.len().min(self.header.len());
            buf[..n].copy_from_slice(&self.header[..n]);
            self.header.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn bare_max_size_header_is_a_typed_error_read_in_bounded_steps() {
        let mut r = BareHeader {
            header: MAX_FRAME_WORDS.to_le_bytes().to_vec(),
            largest_read: 0,
        };
        let err = read_frame(&mut r).expect_err("payload never arrives");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest_read > 0 && r.largest_read <= READ_STEP_BYTES);
    }

    #[test]
    fn truncation_after_the_first_byte_is_an_error_not_a_clean_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[7, 8, 9]).expect("write");
        assert_eq!(
            read_frame(&mut io::Cursor::new(&bytes[..0])).expect("eof"),
            None
        );
        for cut in 1..bytes.len() {
            let err = read_frame(&mut io::Cursor::new(&bytes[..cut])).expect_err("truncated");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn multi_step_payloads_round_trip() {
        let words: Vec<u64> = (0..3 * READ_STEP_BYTES as u64 / 8 + 5).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &words).expect("write");
        assert_eq!(
            read_frame(&mut io::Cursor::new(bytes)).expect("read"),
            Some(words)
        );
    }

    #[test]
    fn strings_round_trip() {
        let mut words = Vec::new();
        push_string(&mut words, "hello, wörld");
        let mut it = words.iter();
        assert_eq!(read_string(&mut it).expect("read"), "hello, wörld");
        assert!(it.next().is_none());
    }

    #[test]
    fn batch_responses_round_trip() {
        let frame = {
            let mut f = vec![RESP_BATCH, 3];
            f.extend_from_slice(&[RES_OK, 2, 10, 11]);
            f.extend_from_slice(&[RES_NEED_RADIUS, 7]);
            f.push(RES_ERROR);
            f.push(ERR_DECODE);
            push_string(&mut f, "nope");
            f
        };
        let results = decode_batch_response(&frame).expect("decode");
        assert_eq!(results[0], BatchResult::Answer(vec![10, 11]));
        assert_eq!(results[1], BatchResult::NeedRadius(7));
        assert_eq!(
            results[2],
            BatchResult::ServerError {
                code: ERR_DECODE,
                message: "nope".into()
            }
        );
        // Truncations are typed errors.
        for len in 0..frame.len() {
            assert!(decode_batch_response(&frame[..len]).is_err() || len == 0);
        }
    }
}
