//! The byte-level CSV tokenizer behind every reader in this crate.
//!
//! One pass over a reused read buffer splits the input into records of
//! cells. The dialect is RFC 4180 plus the suite's trimming rules:
//!
//! * fields are separated by `,` and records by `\n` (a `\r` before the
//!   `\n` is dropped); lines that are empty after that are skipped;
//! * an unquoted field is trimmed with [`str::trim`] semantics, and a field
//!   that trims to nothing is a **null** cell;
//! * a field whose first non-whitespace character is `"` is quoted: it runs
//!   to the matching closing quote, may contain `,`, `\n` and doubled
//!   quotes (`""` → `"`), keeps its inner whitespace and is never null — so
//!   `""` is the empty string. Only whitespace may follow the closing quote;
//! * a `"` inside an unquoted field is an ordinary character.
//!
//! Cells are handed out as byte slices; UTF-8 is checked by the consumer
//! (the dictionary builder checks each distinct value once) through
//! [`Record::text`], which reports the line and field of a bad cell.

use crate::RelationError;
use std::io::Read;

/// Read-buffer size. Record contents are copied out of the buffer as they
/// are scanned, so a record may be longer than the buffer.
const BUF_BYTES: usize = 1 << 17;

/// Marks a null cell in [`Tokenizer::cells`].
const NULL: usize = usize::MAX;

/// `char::is_whitespace` restricted to ASCII (note: includes U+000B, which
/// `u8::is_ascii_whitespace` does not).
fn ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// The `(start, end)` of `bytes.trim()` within `bytes`, without decoding
/// UTF-8 unless a non-ASCII byte sits at an edge. `None` when decoding was
/// needed and failed.
fn trim_span(bytes: &[u8]) -> Option<(usize, usize)> {
    let (mut start, mut end) = (0, bytes.len());
    while start < end && ascii_space(bytes[start]) {
        start += 1;
    }
    while end > start && ascii_space(bytes[end - 1]) {
        end -= 1;
    }
    if start < end && (bytes[start] >= 0x80 || bytes[end - 1] >= 0x80) {
        let text = std::str::from_utf8(&bytes[start..end]).ok()?;
        let trimmed = text.trim();
        let offset = trimmed.as_ptr() as usize - text.as_ptr() as usize;
        return Some((start + offset, start + offset + trimmed.len()));
    }
    Some((start, end))
}

/// Whether `bytes` is empty or whitespace only.
fn is_blank(bytes: &[u8]) -> bool {
    matches!(trim_span(bytes), Some((s, e)) if s == e)
}

/// A [`RelationError::Csv`] at a 1-based line and field.
pub(crate) fn csv_error(line: usize, field: usize, message: impl Into<String>) -> RelationError {
    RelationError::Csv {
        line,
        field,
        message: message.into(),
    }
}

/// Streams records out of a byte source.
pub(crate) struct Tokenizer<R> {
    input: R,
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
    eof: bool,
    /// Line number of the next unread byte (1-based).
    line: usize,
    /// Bytes read from `input` so far.
    bytes: u64,
    /// The current record's cell contents, back to back.
    data: Vec<u8>,
    /// Per cell: `(start, end)` into `data`, `start == NULL` for nulls.
    cells: Vec<(usize, usize)>,
    /// Line on which the current record starts.
    record_line: usize,
}

/// One record, borrowed from the tokenizer until the next call.
pub(crate) struct Record<'a> {
    data: &'a [u8],
    cells: &'a [(usize, usize)],
    line: usize,
}

impl<'a> Record<'a> {
    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Line on which the record starts (1-based).
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// Cell `i`'s bytes, or `None` for a null cell.
    pub(crate) fn cell(&self, i: usize) -> Option<&'a [u8]> {
        let (start, end) = self.cells[i];
        (start != NULL).then(|| &self.data[start..end])
    }

    /// Cell `i` as text (`""` for a null cell), or a typed error naming
    /// the cell's line and 1-based field when it is not UTF-8.
    pub(crate) fn text(&self, i: usize) -> Result<&'a str, RelationError> {
        let bytes = self.cell(i).unwrap_or_default();
        std::str::from_utf8(bytes).map_err(|_| self.error(i, "invalid UTF-8"))
    }

    /// An error at cell `i`, on the cell's own line even inside a
    /// multi-line record.
    pub(crate) fn error(&self, i: usize, message: &str) -> RelationError {
        let start = self.cells[i].0;
        let newlines = match start {
            NULL => 0,
            _ => self.data[..start].iter().filter(|&&b| b == b'\n').count(),
        };
        csv_error(self.line + newlines, i + 1, message)
    }
}

impl<R: Read> Tokenizer<R> {
    /// A tokenizer at the start of `input`.
    pub(crate) fn new(input: R) -> Tokenizer<R> {
        Tokenizer {
            input,
            buf: vec![0; BUF_BYTES].into_boxed_slice(),
            pos: 0,
            len: 0,
            eof: false,
            line: 1,
            bytes: 0,
            data: Vec::new(),
            cells: Vec::new(),
            record_line: 1,
        }
    }

    /// Line number of the next unread byte (1-based).
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// Bytes read so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Refills the buffer once it is consumed; `false` at end of input.
    fn fill(&mut self) -> Result<bool, RelationError> {
        if self.pos < self.len {
            return Ok(true);
        }
        if self.eof {
            return Ok(false);
        }
        loop {
            match self.input.read(&mut self.buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    (self.pos, self.len) = (0, n);
                    self.bytes += n as u64;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The next record, skipping blank lines (`skip_blank == false` turns a
    /// blank line into a record of one null cell — how a header line is
    /// read). `None` at end of input.
    pub(crate) fn next_record(
        &mut self,
        skip_blank: bool,
    ) -> Result<Option<Record<'_>>, RelationError> {
        loop {
            self.data.clear();
            self.cells.clear();
            self.record_line = self.line;
            if !self.fill()? {
                return Ok(None);
            }
            if self.scan_record()? || !skip_blank {
                return Ok(Some(Record {
                    data: &self.data,
                    cells: &self.cells,
                    line: self.record_line,
                }));
            }
        }
    }

    /// Scans one line's worth of record into `data`/`cells`. Returns
    /// `false` for a blank line (which still yields one null cell).
    fn scan_record(&mut self) -> Result<bool, RelationError> {
        let mut field_start = 0;
        // Inside a quoted field: the line its opening quote is on.
        let mut open_quote: Option<usize> = None;
        // After a quoted field closed: where its content ends in `data`.
        let mut closed_at: Option<usize> = None;
        loop {
            if !self.fill()? {
                if let Some(line) = open_quote {
                    return Err(csv_error(
                        line,
                        self.cells.len() + 1,
                        "unterminated quoted field",
                    ));
                }
                self.finish_field(field_start, self.data.len(), closed_at)?;
                return Ok(true);
            }
            let chunk = &self.buf[self.pos..self.len];
            if open_quote.is_some() {
                let run = chunk.iter().position(|&b| b == b'"').unwrap_or(chunk.len());
                self.line += chunk[..run].iter().filter(|&&b| b == b'\n').count();
                self.data.extend_from_slice(&chunk[..run]);
                self.pos += run;
                if self.pos == self.len {
                    continue;
                }
                // A quote: doubled means a literal quote, else it closes.
                self.pos += 1;
                if self.fill()? && self.buf[self.pos] == b'"' {
                    self.data.push(b'"');
                    self.pos += 1;
                } else {
                    open_quote = None;
                    closed_at = Some(self.data.len());
                }
                continue;
            }
            // Copy the unquoted run in one go; its commas stay in `data`
            // and each ends a field.
            let run = chunk
                .iter()
                .position(|&b| b == b'\n' || b == b'"')
                .unwrap_or(chunk.len());
            let mut from = self.data.len();
            self.data.extend_from_slice(&chunk[..run]);
            self.pos += run;
            while let Some(at) = self.data[from..].iter().position(|&b| b == b',') {
                self.finish_field(field_start, from + at, closed_at.take())?;
                field_start = from + at + 1;
                from = field_start;
            }
            if self.pos == self.len {
                continue;
            }
            let byte = self.buf[self.pos];
            self.pos += 1;
            match byte {
                b'\n' => {
                    if self.data.len() > closed_at.unwrap_or(field_start)
                        && self.data.last() == Some(&b'\r')
                    {
                        self.data.pop();
                    }
                    let blank =
                        self.cells.is_empty() && closed_at.is_none() && self.data.is_empty();
                    self.finish_field(field_start, self.data.len(), closed_at)?;
                    self.line += 1;
                    return Ok(!blank);
                }
                _ if closed_at.is_none() && is_blank(&self.data[field_start..]) => {
                    self.data.truncate(field_start);
                    open_quote = Some(self.line);
                }
                // A quote inside an unquoted field, or after a closed one
                // (rejected by `finish_field`).
                _ => self.data.push(b'"'),
            }
        }
    }

    /// Ends the field in `data[start..end]`: trims an unquoted field
    /// (empty → null), checks that only whitespace follows a quoted one.
    fn finish_field(
        &mut self,
        start: usize,
        end: usize,
        closed_at: Option<usize>,
    ) -> Result<(), RelationError> {
        let field = self.cells.len() + 1;
        let cell = match closed_at {
            Some(close) => {
                if !is_blank(&self.data[close..end]) {
                    return Err(csv_error(
                        self.line,
                        field,
                        "unexpected text after a closing quote",
                    ));
                }
                (start, close)
            }
            None => match trim_span(&self.data[start..end]) {
                Some((s, e)) if s == e => (NULL, NULL),
                Some((s, e)) => (start + s, start + e),
                None => return Err(csv_error(self.line, field, "invalid UTF-8")),
            },
        };
        self.cells.push(cell);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(text: impl AsRef<[u8]>) -> Result<Vec<Vec<Option<String>>>, RelationError> {
        let mut tok = Tokenizer::new(text.as_ref());
        let mut out = Vec::new();
        while let Some(rec) = tok.next_record(true)? {
            out.push(
                (0..rec.len())
                    .map(|i| rec.cell(i).map(|b| String::from_utf8(b.to_vec()).unwrap()))
                    .collect(),
            );
        }
        Ok(out)
    }

    fn s(v: &str) -> Option<String> {
        Some(v.to_string())
    }

    #[test]
    fn splits_trims_and_skips_blank_lines() {
        let recs = records("a, b ,c\r\n\r\n\n1,,\u{3000}x\u{a0}\n").unwrap();
        assert_eq!(
            recs,
            vec![vec![s("a"), s("b"), s("c")], vec![s("1"), None, s("x")]]
        );
    }

    #[test]
    fn quoted_fields() {
        let recs = records("\"a,b\",\"say \"\"hi\"\"\", \"\" ,\"x\ny\"\n\" p \",q\"r\n").unwrap();
        assert_eq!(
            recs,
            vec![
                vec![s("a,b"), s("say \"hi\""), s(""), s("x\ny")],
                vec![s(" p "), s("q\"r")],
            ]
        );
    }

    #[test]
    fn quote_errors_name_line_and_field() {
        let err = records("a,b\n1,\"open\n2,3\n").unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 2,
                    field: 2,
                    ..
                }
            ),
            "{err}"
        );
        let err = records("a,b\n\"x\"y,1\n").unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 2,
                    field: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn records_longer_than_the_buffer() {
        let long = "z".repeat(BUF_BYTES * 2 + 3);
        let text = format!("{long},\"{long}\"\"\"\n1,2\n");
        let recs = records(&text).unwrap();
        assert_eq!(recs[0], vec![s(&long), s(&format!("{long}\""))]);
        assert_eq!(recs[1], vec![s("1"), s("2")]);
    }

    #[test]
    fn text_reports_invalid_utf8_with_its_line() {
        let mut tok = Tokenizer::new(&b"\"a\nb\",x\xffy\n"[..]);
        let rec = tok.next_record(true).unwrap().unwrap();
        assert_eq!(rec.text(0).unwrap(), "a\nb");
        let err = rec.text(1).unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 2,
                    field: 2,
                    ..
                }
            ),
            "{err}"
        );
        // A bad byte at a field's edge fails while trimming.
        let err = records(b"a\nb,\xff\n").unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 2,
                    field: 2,
                    ..
                }
            ),
            "{err}"
        );
    }
}
