//! The traffic log record: one data connection.
//!
//! Matches the paper's tuple schema: device id (anonymised), start and
//! end time of the connection, base station id, base station address,
//! bytes transferred. Serialisation is line-oriented, tab-separated —
//! the "unstructured logs" the vectorizer ingests.

use crate::error::TraceError;

/// One data-connection log entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogRecord {
    /// Anonymised subscriber id.
    pub user_id: u64,
    /// Connection start, seconds since trace epoch.
    pub start_s: u64,
    /// Connection end, seconds since trace epoch (≥ `start_s`).
    pub end_s: u64,
    /// Base-station (tower) id.
    pub cell_id: u32,
    /// Base-station street address (free text; the geocoder resolves
    /// it).
    pub address: String,
    /// Bytes transferred over the connection.
    pub bytes: u64,
}

impl LogRecord {
    /// Connection duration in seconds.
    pub fn duration_s(&self) -> u64 {
        self.end_s.saturating_sub(self.start_s)
    }

    /// Serialises to one tab-separated line (no trailing newline).
    /// Tabs inside the address are replaced by spaces so the line
    /// stays parseable.
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.user_id,
            self.start_s,
            self.end_s,
            self.cell_id,
            self.bytes,
            self.address.replace('\t', " "),
        )
    }

    /// Parses one line produced by [`LogRecord::to_line`].
    ///
    /// `line_no` is used only for error reporting (1-based).
    ///
    /// # Errors
    /// [`TraceError::BadFieldCount`], [`TraceError::BadNumber`], or
    /// [`TraceError::NegativeDuration`].
    pub fn parse_line(line: &str, line_no: usize) -> Result<LogRecord, TraceError> {
        let fields: Vec<&str> = line.splitn(6, '\t').collect();
        if fields.len() != 6 {
            return Err(TraceError::BadFieldCount {
                found: fields.len(),
                line: line_no,
            });
        }
        let num = |s: &str, field: &'static str| -> Result<u64, TraceError> {
            s.trim().parse::<u64>().map_err(|_| TraceError::BadNumber {
                field,
                line: line_no,
            })
        };
        let user_id = num(fields[0], "user_id")?;
        let start_s = num(fields[1], "start_s")?;
        let end_s = num(fields[2], "end_s")?;
        let cell_id = num(fields[3], "cell_id")? as u32;
        let bytes = num(fields[4], "bytes")?;
        if end_s < start_s {
            return Err(TraceError::NegativeDuration { line: line_no });
        }
        Ok(LogRecord {
            user_id,
            start_s,
            end_s,
            cell_id,
            address: fields[5].to_string(),
            bytes,
        })
    }
}

/// Serialises records into a multi-line string (one record per line).
pub fn to_lines(records: &[LogRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Parses a multi-line dump, collecting records and per-line errors
/// (real operator logs contain garbage lines; we keep the good ones
/// and report the bad, rather than failing wholesale).
pub fn parse_lines(input: &str) -> (Vec<LogRecord>, Vec<TraceError>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match LogRecord::parse_line(line, i + 1) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(e),
        }
    }
    (records, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> LogRecord {
        LogRecord {
            user_id: 42,
            start_s: 1_000,
            end_s: 1_600,
            cell_id: 7,
            address: "BLK-121470-31230 Nanjing Rd".into(),
            bytes: 123_456,
        }
    }

    #[test]
    fn line_roundtrip() {
        let r = rec();
        let parsed = LogRecord::parse_line(&r.to_line(), 1).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn tab_in_address_is_sanitised() {
        let mut r = rec();
        r.address = "BLK-1-2\tweird".into();
        let parsed = LogRecord::parse_line(&r.to_line(), 1).unwrap();
        assert_eq!(parsed.address, "BLK-1-2 weird");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert_eq!(
            LogRecord::parse_line("1\t2\t3", 9),
            Err(TraceError::BadFieldCount { found: 3, line: 9 })
        );
        assert_eq!(
            LogRecord::parse_line("x\t2\t3\t4\t5\taddr", 2),
            Err(TraceError::BadNumber {
                field: "user_id",
                line: 2
            })
        );
        assert_eq!(
            LogRecord::parse_line("1\t100\t50\t4\t5\taddr", 3),
            Err(TraceError::NegativeDuration { line: 3 })
        );
    }

    #[test]
    fn bulk_roundtrip_with_garbage() {
        let records = vec![rec(), {
            let mut r = rec();
            r.user_id = 43;
            r
        }];
        let mut dump = to_lines(&records);
        dump.push_str("garbage line\n\n1\t2\t3\t4\t5\tok\n");
        let (parsed, errors) = parse_lines(&dump);
        assert_eq!(parsed.len(), 3);
        assert_eq!(errors.len(), 1);
        assert_eq!(parsed[0], records[0]);
    }

    #[test]
    fn duration_saturates() {
        let r = rec();
        assert_eq!(r.duration_s(), 600);
    }
}

/// A streaming record reader over any [`std::io::BufRead`] source:
/// yields one `Result` per non-empty line, so multi-gigabyte operator
/// exports can be processed without loading them into memory.
///
/// ```
/// use towerlens_trace::record::{RecordReader, LogRecord};
///
/// let dump = "1\t100\t200\t3\t555\tBLK-1-1 Rd\ngarbage\n";
/// let mut reader = RecordReader::new(dump.as_bytes());
/// // Each item is io::Result<Result<LogRecord, TraceError>>.
/// let first = reader.next().unwrap().unwrap().unwrap();
/// assert_eq!(first.bytes, 555);
/// assert!(reader.next().unwrap().unwrap().is_err()); // the garbage line
/// assert!(reader.next().is_none());
/// ```
#[derive(Debug)]
pub struct RecordReader<R> {
    source: R,
    line_no: usize,
    buffer: String,
}

impl<R: std::io::BufRead> RecordReader<R> {
    /// Wraps a buffered source.
    pub fn new(source: R) -> Self {
        RecordReader {
            source,
            line_no: 0,
            buffer: String::new(),
        }
    }
}

impl<R: std::io::BufRead> Iterator for RecordReader<R> {
    type Item = std::io::Result<Result<LogRecord, TraceError>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buffer.clear();
            match self.source.read_line(&mut self.buffer) {
                Ok(0) => return None,
                Ok(_) => {
                    self.line_no += 1;
                    let line = self.buffer.trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        continue;
                    }
                    return Some(Ok(LogRecord::parse_line(line, self.line_no)));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod reader_tests {
    use super::*;

    #[test]
    fn streams_good_and_bad_lines() {
        let dump = "\n1\t10\t20\t0\t5\taddr one\n\nbad line\n2\t30\t40\t1\t6\taddr two\n";
        let results: Vec<_> = RecordReader::new(dump.as_bytes())
            .map(|r| r.expect("io"))
            .collect();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().unwrap().user_id, 2);
    }

    #[test]
    fn line_numbers_in_errors_count_nonblank_reads() {
        let dump = "x\ty\n";
        let err = RecordReader::new(dump.as_bytes())
            .next()
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, TraceError::BadFieldCount { line: 1, .. }));
    }

    #[test]
    fn matches_parse_lines_on_clean_dump() {
        let records = vec![
            LogRecord {
                user_id: 1,
                start_s: 5,
                end_s: 6,
                cell_id: 7,
                address: "BLK-2-2 Rd".into(),
                bytes: 9,
            };
            3
        ];
        let dump = to_lines(&records);
        let streamed: Vec<LogRecord> = RecordReader::new(dump.as_bytes())
            .map(|r| r.expect("io").expect("parse"))
            .collect();
        assert_eq!(streamed, records);
    }
}
