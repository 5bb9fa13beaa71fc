//! The `landscaped` line protocol: request parsing and framing.
//!
//! One request per line, ASCII, space-separated, newline-terminated:
//!
//! ```text
//! PING
//! STATUS [FULL]
//! METRICS [PROM]
//! TRACE <id>|DUMP|ERRORS
//! RUN_UNTIL <stage|all> [WALL_MS <n>] [SIM_HOURS <n>]
//! GET <stage> [FULL]
//! CANCEL <id>
//! TICK <hours>
//! SHUTDOWN
//! ```
//!
//! Replies are single lines except `STATUS`, `METRICS`, `TRACE` and a
//! `GET` hit, which send a status line, payload lines, and a lone `.`
//! terminator. `RUN_UNTIL` replies twice: `RUNNING id=<n>` immediately
//! (so the client can `CANCEL` from another connection), then the
//! final `OK`/`PARTIAL`/`ERROR` line when the query settles.
//!
//! The plain `STATUS` and `METRICS` replies are the deterministic
//! views: every value is a pure function of the seed and the requests
//! served, so the committed daemon transcript and the benchmark pin
//! them exactly. Wall-clock telemetry extends the protocol only
//! through the `STATUS FULL`, `METRICS PROM` and `TRACE` forms.
//!
//! Malformed input never kills a connection: every parse failure maps
//! to a typed [`ProtocolError`] the daemon renders as a single `ERR
//! <code>: <detail>` line, after which the stream is back in sync at
//! the next newline. Lines over [`MAX_LINE`] bytes are drained and
//! rejected without buffering them; non-UTF-8 lines are rejected the
//! same way.

use std::fmt;
use std::io::{self, BufRead};

use hs_landscape::StageId;

/// Upper bound on an accepted request line, in bytes (newline
/// excluded). Longer lines are drained from the stream and answered
/// with a typed error, so an abusive client cannot make the daemon
/// buffer unbounded input.
pub const MAX_LINE: usize = 4096;

/// What a query should run: the full pipeline or one stage's closure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    /// Every stage (`RUN_UNTIL all`).
    All,
    /// One stage and its dependency closure.
    Stage(StageId),
}

impl Target {
    /// The stages handed to the engine.
    pub fn stages(self) -> Vec<StageId> {
        match self {
            Target::All => StageId::ALL.to_vec(),
            Target::Stage(s) => vec![s],
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::All => f.write_str("all"),
            Target::Stage(s) => write!(f, "{s}"),
        }
    }
}

/// What a `TRACE` request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceQuery {
    /// One query's span tree, by the id from its `RUNNING` reply.
    Query(u64),
    /// The whole flight-recorder ring as Chrome `trace_event` JSON.
    Dump,
    /// The ids pinned in the last-errors ring.
    Errors,
}

/// A parsed request line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Epoch, world hash, sim clock, admission state. `FULL` adds the
    /// telemetry extensions (epoch age, uptime, cache occupancy).
    Status {
        /// True for `STATUS FULL`.
        full: bool,
    },
    /// Daemon and cache counters. `PROM` renders the wall-clock
    /// telemetry registry as Prometheus text exposition instead of the
    /// deterministic key=value lines.
    Metrics {
        /// True for `METRICS PROM`.
        prom: bool,
    },
    /// Flight-recorder queries.
    Trace(TraceQuery),
    /// Run a study query against the current epoch.
    RunUntil {
        /// What to run.
        target: Target,
        /// Wall-clock budget in milliseconds, if bounded.
        wall_ms: Option<u64>,
        /// Simulated-hours budget, if bounded.
        sim_hours: Option<u64>,
    },
    /// Read one stage's artifact without computing anything: a
    /// key=value summary, or (`FULL`) the same Table/Fig renders the
    /// batch CLI emits.
    Get {
        /// The artifact's producing stage.
        stage: StageId,
        /// True for `GET <stage> FULL`.
        full: bool,
    },
    /// Cooperatively cancel a running query.
    Cancel {
        /// The id from the query's `RUNNING` reply.
        id: u64,
    },
    /// Advance the resident world, opening a new epoch.
    Tick {
        /// Simulated hours to advance.
        hours: u64,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// Every way a request line can be rejected. Each maps to a stable
/// lowercase code used in the `ERR <code>: <detail>` reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// Blank line.
    Empty,
    /// The verb is not part of the protocol.
    UnknownCommand(String),
    /// A stage argument named no pipeline stage.
    UnknownStage(String),
    /// An argument did not parse (wrong type, out of range).
    BadArgument {
        /// The argument's name.
        arg: &'static str,
        /// The offending value, sanitized.
        value: String,
    },
    /// A required argument is missing.
    MissingArgument(&'static str),
    /// Trailing tokens after a complete request.
    UnexpectedArgument(String),
    /// Line longer than [`MAX_LINE`] bytes (already drained).
    Oversized,
    /// The line is not valid UTF-8.
    NotUtf8,
}

impl ProtocolError {
    /// The stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Empty => "empty",
            ProtocolError::UnknownCommand(_) => "unknown_command",
            ProtocolError::UnknownStage(_) => "unknown_stage",
            ProtocolError::BadArgument { .. } => "bad_argument",
            ProtocolError::MissingArgument(_) => "missing_argument",
            ProtocolError::UnexpectedArgument(_) => "unexpected_argument",
            ProtocolError::Oversized => "oversized",
            ProtocolError::NotUtf8 => "not_utf8",
        }
    }

    /// The full single-line reply for this error.
    pub fn reply(&self) -> String {
        match self {
            ProtocolError::Empty => "ERR empty: blank request line".to_owned(),
            ProtocolError::UnknownCommand(verb) => {
                format!("ERR unknown_command: {}", sanitize(verb))
            }
            ProtocolError::UnknownStage(name) => {
                format!(
                    "ERR unknown_stage: {} (expected all|{})",
                    sanitize(name),
                    stage_names().join("|")
                )
            }
            ProtocolError::BadArgument { arg, value } => {
                format!("ERR bad_argument: {arg}={}", sanitize(value))
            }
            ProtocolError::MissingArgument(arg) => {
                format!("ERR missing_argument: {arg}")
            }
            ProtocolError::UnexpectedArgument(tok) => {
                format!("ERR unexpected_argument: {}", sanitize(tok))
            }
            ProtocolError::Oversized => {
                format!("ERR oversized: line exceeds {MAX_LINE} bytes")
            }
            ProtocolError::NotUtf8 => "ERR not_utf8: request is not valid UTF-8".to_owned(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reply())
    }
}

/// Every stage name, for error messages and summaries.
fn stage_names() -> Vec<&'static str> {
    StageId::ALL.iter().map(|s| s.name()).collect()
}

/// Truncates and strips a client-provided token so it can be echoed
/// back safely: printable ASCII only, at most 32 bytes.
fn sanitize(token: &str) -> String {
    token
        .chars()
        .filter(|c| c.is_ascii_graphic())
        .take(32)
        .collect()
}

fn parse_stage(token: &str) -> Result<StageId, ProtocolError> {
    StageId::ALL
        .iter()
        .copied()
        .find(|s| s.name() == token)
        .ok_or_else(|| ProtocolError::UnknownStage(token.to_owned()))
}

fn parse_u64(arg: &'static str, token: &str) -> Result<u64, ProtocolError> {
    token.parse().map_err(|_| ProtocolError::BadArgument {
        arg,
        value: token.to_owned(),
    })
}

/// Parses one request line (newline already stripped).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or(ProtocolError::Empty)?;
    let req = match verb {
        "PING" => Request::Ping,
        "STATUS" => match tokens.next() {
            None => Request::Status { full: false },
            Some("FULL") => Request::Status { full: true },
            Some(other) => return Err(ProtocolError::UnexpectedArgument(other.to_owned())),
        },
        "METRICS" => match tokens.next() {
            None => Request::Metrics { prom: false },
            Some("PROM") => Request::Metrics { prom: true },
            Some(other) => return Err(ProtocolError::UnexpectedArgument(other.to_owned())),
        },
        "TRACE" => {
            let token = tokens.next().ok_or(ProtocolError::MissingArgument("id"))?;
            Request::Trace(match token {
                "DUMP" => TraceQuery::Dump,
                "ERRORS" => TraceQuery::Errors,
                other => TraceQuery::Query(parse_u64("id", other)?),
            })
        }
        "SHUTDOWN" => Request::Shutdown,
        "RUN_UNTIL" => {
            let token = tokens
                .next()
                .ok_or(ProtocolError::MissingArgument("stage"))?;
            let target = if token == "all" {
                Target::All
            } else {
                Target::Stage(parse_stage(token)?)
            };
            let mut wall_ms = None;
            let mut sim_hours = None;
            while let Some(key) = tokens.next() {
                match key {
                    "WALL_MS" => {
                        let v = tokens
                            .next()
                            .ok_or(ProtocolError::MissingArgument("WALL_MS"))?;
                        wall_ms = Some(parse_u64("WALL_MS", v)?);
                    }
                    "SIM_HOURS" => {
                        let v = tokens
                            .next()
                            .ok_or(ProtocolError::MissingArgument("SIM_HOURS"))?;
                        sim_hours = Some(parse_u64("SIM_HOURS", v)?);
                    }
                    other => return Err(ProtocolError::UnexpectedArgument(other.to_owned())),
                }
            }
            Request::RunUntil {
                target,
                wall_ms,
                sim_hours,
            }
        }
        "GET" => {
            let token = tokens
                .next()
                .ok_or(ProtocolError::MissingArgument("stage"))?;
            let stage = parse_stage(token)?;
            let full = match tokens.next() {
                None => false,
                Some("FULL") => true,
                Some(other) => return Err(ProtocolError::UnexpectedArgument(other.to_owned())),
            };
            Request::Get { stage, full }
        }
        "CANCEL" => {
            let token = tokens.next().ok_or(ProtocolError::MissingArgument("id"))?;
            Request::Cancel {
                id: parse_u64("id", token)?,
            }
        }
        "TICK" => {
            let token = tokens
                .next()
                .ok_or(ProtocolError::MissingArgument("hours"))?;
            let hours = parse_u64("hours", token)?;
            if hours == 0 || hours > 24 * 365 {
                return Err(ProtocolError::BadArgument {
                    arg: "hours",
                    value: token.to_owned(),
                });
            }
            Request::Tick { hours }
        }
        other => return Err(ProtocolError::UnknownCommand(other.to_owned())),
    };
    if let Some(extra) = tokens.next() {
        return Err(ProtocolError::UnexpectedArgument(extra.to_owned()));
    }
    Ok(req)
}

/// Reads newline-delimited request lines with the [`MAX_LINE`] bound
/// enforced *during* the read: an oversized line is drained (never
/// buffered whole) and reported as a typed error, leaving the stream
/// in sync at the next newline.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        LineReader { inner }
    }

    /// The next line: `Ok(None)` at EOF, `Ok(Some(Err(..)))` for a
    /// line the framing layer rejected (oversized, not UTF-8), and
    /// `Err` only for a real transport error.
    #[allow(clippy::type_complexity)]
    pub fn next_line(&mut self) -> io::Result<Option<Result<String, ProtocolError>>> {
        self.next_line_until(&mut || false)
    }

    /// [`LineReader::next_line`], but interruptible: when the
    /// underlying read times out (`WouldBlock`/`TimedOut` from a
    /// socket read timeout), `give_up` decides whether to keep
    /// waiting or end the stream (`Ok(None)`). Any partially read
    /// line survives the retry, so a request split across timeouts
    /// still parses — essential for pool workers that must notice a
    /// stop flag without losing in-flight bytes.
    #[allow(clippy::type_complexity)]
    pub fn next_line_until(
        &mut self,
        give_up: &mut dyn FnMut() -> bool,
    ) -> io::Result<Option<Result<String, ProtocolError>>> {
        let mut buf: Vec<u8> = Vec::new();
        let mut oversized = false;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if give_up() {
                        return Ok(None);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: a final unterminated fragment still parses.
                if buf.is_empty() && !oversized {
                    return Ok(None);
                }
                break;
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.map_or(chunk.len(), |i| i + 1);
            if !oversized {
                let line_part = &chunk[..newline.map_or(chunk.len(), |i| i)];
                if buf.len() + line_part.len() > MAX_LINE {
                    oversized = true;
                    buf.clear();
                } else {
                    buf.extend_from_slice(line_part);
                }
            }
            self.inner.consume(take);
            if newline.is_some() {
                break;
            }
        }
        if oversized {
            return Ok(Some(Err(ProtocolError::Oversized)));
        }
        if let Some(&b'\r') = buf.last() {
            buf.pop();
        }
        match String::from_utf8(buf) {
            Ok(line) => Ok(Some(Ok(line))),
            Err(_) => Ok(Some(Err(ProtocolError::NotUtf8))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("STATUS"), Ok(Request::Status { full: false }));
        assert_eq!(
            parse_request("STATUS FULL"),
            Ok(Request::Status { full: true })
        );
        assert_eq!(
            parse_request("METRICS"),
            Ok(Request::Metrics { prom: false })
        );
        assert_eq!(
            parse_request("METRICS PROM"),
            Ok(Request::Metrics { prom: true })
        );
        assert_eq!(
            parse_request("TRACE 12"),
            Ok(Request::Trace(TraceQuery::Query(12)))
        );
        assert_eq!(
            parse_request("TRACE DUMP"),
            Ok(Request::Trace(TraceQuery::Dump))
        );
        assert_eq!(
            parse_request("TRACE ERRORS"),
            Ok(Request::Trace(TraceQuery::Errors))
        );
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(
            parse_request("RUN_UNTIL port_scan"),
            Ok(Request::RunUntil {
                target: Target::Stage(StageId::PortScan),
                wall_ms: None,
                sim_hours: None,
            })
        );
        assert_eq!(
            parse_request("RUN_UNTIL all WALL_MS 500 SIM_HOURS 300"),
            Ok(Request::RunUntil {
                target: Target::All,
                wall_ms: Some(500),
                sim_hours: Some(300),
            })
        );
        assert_eq!(
            parse_request("GET popularity"),
            Ok(Request::Get {
                stage: StageId::Popularity,
                full: false,
            })
        );
        assert_eq!(
            parse_request("GET crawl FULL"),
            Ok(Request::Get {
                stage: StageId::Crawl,
                full: true,
            })
        );
        assert_eq!(parse_request("CANCEL 7"), Ok(Request::Cancel { id: 7 }));
        assert_eq!(parse_request("TICK 24"), Ok(Request::Tick { hours: 24 }));
    }

    #[test]
    fn rejects_malformed_lines_with_typed_errors() {
        assert_eq!(parse_request(""), Err(ProtocolError::Empty));
        assert_eq!(parse_request("   "), Err(ProtocolError::Empty));
        assert!(matches!(
            parse_request("FROB"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_request("RUN_UNTIL warp_drive"),
            Err(ProtocolError::UnknownStage(_))
        ));
        assert_eq!(
            parse_request("RUN_UNTIL"),
            Err(ProtocolError::MissingArgument("stage"))
        );
        assert!(matches!(
            parse_request("CANCEL seven"),
            Err(ProtocolError::BadArgument { arg: "id", .. })
        ));
        assert!(matches!(
            parse_request("TICK 0"),
            Err(ProtocolError::BadArgument { arg: "hours", .. })
        ));
        assert!(matches!(
            parse_request("PING extra"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse_request("RUN_UNTIL all BOGUS 3"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse_request("STATUS PARTIAL"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse_request("METRICS JSON"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert_eq!(
            parse_request("TRACE"),
            Err(ProtocolError::MissingArgument("id"))
        );
        assert!(matches!(
            parse_request("TRACE nope"),
            Err(ProtocolError::BadArgument { arg: "id", .. })
        ));
        assert!(matches!(
            parse_request("TRACE DUMP extra"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse_request("GET setup PARTIAL"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse_request("GET setup FULL extra"),
            Err(ProtocolError::UnexpectedArgument(_))
        ));
    }

    /// A reader whose stream times out between byte chunks: the
    /// interruptible read must keep partial lines across retries and
    /// only end the stream when asked to give up.
    struct Intermittent {
        chunks: Vec<Vec<u8>>,
        timeouts_first: bool,
    }

    impl std::io::Read for Intermittent {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.timeouts_first {
                self.timeouts_first = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            match self.chunks.first_mut() {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.remove(0);
                        self.timeouts_first = true;
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn interruptible_read_keeps_partial_lines_across_timeouts() {
        let stream = Intermittent {
            chunks: vec![b"STA".to_vec(), b"TUS\nPI".to_vec(), b"NG\n".to_vec()],
            timeouts_first: true,
        };
        let mut reader = LineReader::new(BufReader::new(stream));
        let mut stop = || false;
        assert_eq!(
            reader.next_line_until(&mut stop).unwrap(),
            Some(Ok("STATUS".to_owned()))
        );
        assert_eq!(
            reader.next_line_until(&mut stop).unwrap(),
            Some(Ok("PING".to_owned()))
        );
    }

    #[test]
    fn interruptible_read_gives_up_when_asked() {
        let stream = Intermittent {
            chunks: vec![b"NEVER_FINISHED".to_vec()],
            timeouts_first: true,
        };
        let mut reader = LineReader::new(BufReader::new(stream));
        assert_eq!(reader.next_line_until(&mut || true).unwrap(), None);
    }

    #[test]
    fn error_replies_are_single_sanitized_lines() {
        let weird = "RUN_UNTIL \u{7}\u{1b}[31mevil\tstage\u{0}name_that_is_quite_long_indeed";
        let err = parse_request(weird).unwrap_err();
        let reply = err.reply();
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(!reply.contains('\n'));
        assert!(reply.chars().all(|c| c == ' ' || c.is_ascii_graphic()));
    }

    #[test]
    fn line_reader_resyncs_after_oversized_line() {
        let mut input = vec![b'A'; MAX_LINE + 100];
        input.push(b'\n');
        input.extend_from_slice(b"PING\n");
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        assert_eq!(
            reader.next_line().unwrap(),
            Some(Err(ProtocolError::Oversized))
        );
        assert_eq!(reader.next_line().unwrap(), Some(Ok("PING".to_owned())));
        assert_eq!(reader.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_handles_crlf_and_unterminated_tail() {
        let input = b"STATUS\r\nMETRICS".to_vec();
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        assert_eq!(reader.next_line().unwrap(), Some(Ok("STATUS".to_owned())));
        assert_eq!(reader.next_line().unwrap(), Some(Ok("METRICS".to_owned())));
        assert_eq!(reader.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_rejects_non_utf8_but_continues() {
        let mut input = vec![b'P', 0xff, 0xfe, b'\n'];
        input.extend_from_slice(b"PING\n");
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        assert_eq!(
            reader.next_line().unwrap(),
            Some(Err(ProtocolError::NotUtf8))
        );
        assert_eq!(reader.next_line().unwrap(), Some(Ok("PING".to_owned())));
    }

    #[test]
    fn boundary_line_lengths() {
        let mut input = vec![b'A'; MAX_LINE];
        input.push(b'\n');
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        let line = reader.next_line().unwrap().unwrap().unwrap();
        assert_eq!(line.len(), MAX_LINE);
        let mut input = vec![b'A'; MAX_LINE + 1];
        input.push(b'\n');
        let mut reader = LineReader::new(BufReader::new(&input[..]));
        assert_eq!(
            reader.next_line().unwrap(),
            Some(Err(ProtocolError::Oversized))
        );
    }
}
