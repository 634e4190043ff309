//! The structured event model: round-stamped records for everything the
//! engine does that an operator (or a regression test) would want on a
//! timeline.
//!
//! Each kind is declared once, in the `event_kinds!` table below: its doc
//! comment, its JSONL tag and its integer fields, typed, in render order.
//! The [`EventKind`] enum, [`EventKind::name`], the render-order field list
//! and the JSONL field parser are generated from that declaration, so a
//! new kind or field is a one-line schema edit.
//!
//! Events render to JSONL (one flat object per line, fixed field order)
//! and CSV (fixed sparse columns). Both writers are hand-rolled — every
//! field is an integer and every tag is a fixed identifier, so the
//! formats need no escaping and no serializer dependency — and
//! [`TraceEvent::parse_jsonl`] parses the JSONL form back, range-checking
//! each value against its declared type; the `timeline` renderer and the
//! round-trip tests consume it.

use std::fmt;

/// The most fields a kind may declare: the slot count of the
/// allocation-free `EventKind::fields` (DESIGN.md §7).
const MAX_FIELDS: usize = 4;

/// Generates [`EventKind`] and its per-kind methods from one declaration
/// per kind: `Variant = "tag" { field: type, … }`, fields in render order.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $tag:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )+
        }
    )+) => {
        /// What happened (the payload of a [`TraceEvent`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $kind { $( $(#[$field_doc])* $field: $ty, )+ }, )+
        }

        $( const _: () = assert!([$(stringify!($field)),+].len() <= MAX_FIELDS, $tag); )+

        impl EventKind {
            /// The stable tag this kind renders as (`"arrival"`, `"hiccup"`, …).
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$kind { .. } => $tag, )+
                }
            }

            /// The kind's payload as `(key, value)` pairs in render order,
            /// returned as a fixed array plus its used length — rendering
            /// an event must not allocate (tracing sits on the round hot
            /// path, DESIGN.md §7).
            fn fields(&self) -> ([(&'static str, u64); MAX_FIELDS], usize) {
                match *self {
                    $( EventKind::$kind { $($field),+ } => {
                        let used = [$((stringify!($field), u64::from($field))),+];
                        let mut slots = [("", 0); MAX_FIELDS];
                        slots[..used.len()].copy_from_slice(&used);
                        (slots, used.len())
                    } )+
                }
            }

            /// Reads the fields of the kind tagged `tag` from a JSONL line.
            fn parse_fields(tag: &str, line: &str) -> Result<EventKind, TraceParseError> {
                match tag {
                    $( $tag => Ok(EventKind::$kind {
                        $( $field: parse_value(line, stringify!($field))?, )+
                    }), )+
                    _ => Err(TraceParseError::UnknownTag(tag.to_string())),
                }
            }

            /// Every kind twice: with its fields at 0, then at their type's
            /// maximum.
            #[cfg(test)]
            fn extremes() -> Vec<EventKind> {
                vec![$(
                    EventKind::$kind { $($field: 0,)+ },
                    EventKind::$kind { $($field: <$ty>::MAX,)+ },
                )+]
            }
        }
    };
}

event_kinds! {
    /// A playback request entered the pending queue.
    Arrival = "arrival" {
        /// Request id.
        request: u64,
        /// Requested clip.
        clip: u64,
    }
    /// A pending request was admitted.
    Admission = "admission" {
        /// Request id.
        request: u64,
        /// Admitted clip.
        clip: u64,
        /// Rounds the request waited in the pending queue.
        wait: u64,
    }
    /// The admission controller refused a request this round (it stays
    /// queued and is retried later).
    Rejection = "rejection" {
        /// Request id.
        request: u64,
        /// Requested clip.
        clip: u64,
    }
    /// A clip finished playback.
    Completion = "completion" {
        /// Request id.
        request: u64,
    }
    /// A disk failed.
    DiskFailure = "disk_failure" {
        /// Failed disk.
        disk: u32,
    }
    /// A failed disk returned to service (external repair).
    DiskRepair = "disk_repair" {
        /// Repaired disk.
        disk: u32,
    }
    /// A disk entered a transient outage: it refuses service for a fixed
    /// window but keeps its data (no rebuild when the window ends).
    DiskTransient = "disk_transient" {
        /// Affected disk.
        disk: u32,
        /// Window length in rounds.
        rounds: u64,
    }
    /// A transient outage expired; the disk is serving again.
    DiskTransientEnd = "disk_transient_end" {
        /// Recovered disk.
        disk: u32,
    }
    /// A disk entered a slow window: it still serves, but `factor`×
    /// slower, so its per-round budget shrinks accordingly.
    DiskSlow = "disk_slow" {
        /// Affected disk.
        disk: u32,
        /// Service-time multiplier.
        factor: u32,
        /// Window length in rounds.
        rounds: u64,
    }
    /// A slow window expired; the disk serves at nominal speed again.
    DiskSlowEnd = "disk_slow_end" {
        /// Recovered disk.
        disk: u32,
    }
    /// A stream was declared lost: a second failure left one of its
    /// blocks unreconstructable, so the engine terminated it
    /// deterministically instead of mis-serving.
    StreamLost = "stream_lost" {
        /// Terminated client.
        request: u64,
        /// First clip-block index that became unreconstructable.
        block: u64,
    }
    /// Degraded-mode admission refused a request because the surviving
    /// bandwidth (contingency fraction `f` spent on failure-mode load)
    /// cannot carry another stream. The request stays queued.
    DegradedRefusal = "degraded_refusal" {
        /// Refused request.
        request: u64,
        /// Requested clip.
        clip: u64,
    }
    /// A recovery read was issued on a surviving disk to reconstruct a
    /// block lost to the failed disk.
    RecoveryRead = "recovery_read" {
        /// Client whose block is being reconstructed.
        request: u64,
        /// Surviving disk the read targets.
        disk: u32,
        /// Clip-block index being reconstructed.
        block: u64,
    }
    /// A lost block was fully reconstructed by XOR.
    Reconstruction = "reconstruction" {
        /// Client the block belongs to.
        request: u64,
        /// Reconstructed clip-block index.
        block: u64,
    }
    /// One disk's service round (emitted per disk per non-empty round,
    /// buffered per worker and merged in disk-ID order).
    DiskServe = "disk_serve" {
        /// Disk id.
        disk: u32,
        /// Blocks retrieved this round.
        blocks: u32,
        /// Busy time in microseconds (worst-case timing model).
        busy_us: u64,
        /// Queue depth before the EDF drain.
        queue: u32,
    }
    /// A disk refused a service round and its fetches were dropped.
    ServiceError = "service_error" {
        /// Refusing disk.
        disk: u32,
        /// Fetches dropped.
        dropped: u32,
    }
    /// Background rebuild progress (one per round while a rebuild runs).
    RebuildProgress = "rebuild_progress" {
        /// Blocks rebuilt onto the spare so far.
        rebuilt: u64,
        /// Total blocks to rebuild.
        total: u64,
    }
    /// Background rebuild finished; the array is whole again.
    RebuildComplete = "rebuild_complete" {
        /// The disk whose contents were rebuilt.
        disk: u32,
    }
    /// A block was missing from the buffer in the round it was due — the
    /// playback glitch the guarantee schemes must never produce.
    Hiccup = "hiccup" {
        /// Affected client.
        request: u64,
        /// Clip-block index that was not there.
        block: u64,
    }
    /// A fetch was delivered later than the round before it was needed.
    LateServe = "late_serve" {
        /// Affected client.
        request: u64,
        /// Late clip-block index.
        block: u64,
    }
    /// A whole server node went dark (cluster tier): every stream it was
    /// carrying must migrate to a surviving replica or be lost.
    NodeFailure = "node_failure" {
        /// Failed node.
        node: u32,
    }
    /// A failed node returned (disks blank) and entered cross-node
    /// rebuild; it is not routable until the rebuild completes.
    NodeRepair = "node_repair" {
        /// Returning node.
        node: u32,
    }
    /// A stream was moved from a failed node to a surviving replica of
    /// its clip, resuming at the group-aligned offset it had reached.
    StreamMigrated = "stream_migrated" {
        /// Migrated stream (cluster-level request id).
        request: u64,
        /// Node the stream was running on.
        from: u32,
        /// Surviving replica now carrying it.
        to: u32,
    }
    /// One round of cross-node rebuild traffic: a source replica supplied
    /// blocks to a rebuilding node, charged against the source's
    /// streaming bandwidth.
    CrossNodeRebuildRead = "cross_node_rebuild_read" {
        /// Node being rebuilt.
        node: u32,
        /// Source replica supplying the blocks.
        source: u32,
        /// Blocks shipped this round.
        blocks: u32,
    }
    /// A node's cross-node rebuild finished; it is routable again.
    NodeRebuildComplete = "node_rebuild_complete" {
        /// Rebuilt node.
        node: u32,
    }
}

/// One round-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The round the event happened in.
    pub round: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Why a line did not parse as a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line has no `"event":"…"` tag.
    NoTag,
    /// The tag names no declared event kind.
    UnknownTag(String),
    /// A key the event needs (`round` or one of its kind's fields) is
    /// absent.
    MissingKey(&'static str),
    /// A key's value is not an unsigned decimal integer.
    NotNumeric(&'static str),
    /// A key's value does not fit the field's declared type.
    OutOfRange {
        /// The key.
        key: &'static str,
        /// The declared type (`"u32"` or `"u64"`).
        ty: &'static str,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::NoTag => f.write_str("no \"event\" tag"),
            TraceParseError::UnknownTag(tag) => write!(f, "unknown event tag \"{tag}\""),
            TraceParseError::MissingKey(key) => write!(f, "missing key \"{key}\""),
            TraceParseError::NotNumeric(key) => {
                write!(f, "the value of \"{key}\" is not an unsigned integer")
            }
            TraceParseError::OutOfRange { key, ty } => {
                write!(f, "the value of \"{key}\" is out of range for {ty}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// The CSV column set, sparse: a column is empty when the event kind has
/// no such field. `total` has no column of its own; it shares `rebuilt`
/// as `rebuilt/total`.
pub const CSV_COLUMNS: [&str; 18] = [
    "round", "event", "request", "clip", "disk", "block", "wait", "blocks", "busy_us", "queue",
    "dropped", "rebuilt", "node", "from", "to", "source", "factor", "rounds",
];

impl TraceEvent {
    /// Appends the event as one JSONL line (newline included) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"round\":");
        push_decimal(out, self.round);
        out.push_str(",\"event\":\"");
        out.push_str(self.kind.name());
        out.push('"');
        let (fields, used) = self.kind.fields();
        for &(key, value) in &fields[..used] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_decimal(out, value);
        }
        out.push_str("}\n");
    }

    /// The event as one JSONL line (newline included).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_jsonl(&mut s);
        s
    }

    /// The CSV header line (newline included) matching [`CSV_COLUMNS`].
    #[must_use]
    pub fn csv_header() -> String {
        let mut s = CSV_COLUMNS.join(",");
        s.push('\n');
        s
    }

    /// Appends the event as one CSV line (newline included) to `out`.
    pub fn write_csv(&self, out: &mut String) {
        let (fields, used) = self.kind.fields();
        let lookup = |key: &str| fields[..used].iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        push_decimal(out, self.round);
        out.push(',');
        out.push_str(self.kind.name());
        for &column in &CSV_COLUMNS[2..] {
            out.push(',');
            if let Some(v) = lookup(column) {
                push_decimal(out, v);
            }
            if column == "rebuilt" {
                if let Some(total) = lookup("total") {
                    out.push('/');
                    push_decimal(out, total);
                }
            }
        }
        out.push('\n');
    }

    /// Parses one JSONL line produced by [`TraceEvent::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceParseError`] the line shows: no tag or an
    /// unknown one, then a missing or non-numeric key, or a value out of
    /// range for its declared type.
    pub fn parse_jsonl(line: &str) -> Result<TraceEvent, TraceParseError> {
        let line = line.trim();
        let tag = value_of(line, "event")
            .and_then(|rest| rest.strip_prefix('"')?.split_once('"'))
            .ok_or(TraceParseError::NoTag)?
            .0;
        let round = parse_value(line, "round")?;
        Ok(TraceEvent { round, kind: EventKind::parse_fields(tag, line)? })
    }
}

/// Appends `v` in decimal to `out`: the bytes of `write!(out, "{v}")`,
/// without the formatting machinery, which cost more than the rest of a
/// line's rendering on the round hot path.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// The text after `"key":` in a flat JSONL line.
fn value_of<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.match_indices(key).find_map(|(at, _)| {
        let rest = line[at + key.len()..].strip_prefix("\":")?;
        line[..at].ends_with('"').then_some(rest)
    })
}

/// Reads the value of `"key":<digits>` from a flat JSONL line as the
/// field's declared type.
fn parse_value<T: TryFrom<u64>>(line: &str, key: &'static str) -> Result<T, TraceParseError> {
    let rest = value_of(line, key).ok_or(TraceParseError::MissingKey(key))?;
    let digits = &rest[..rest.find([',', '}']).unwrap_or(rest.len())];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(TraceParseError::NotNumeric(key));
    }
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| T::try_from(v).ok())
        .ok_or(TraceParseError::OutOfRange { key, ty: std::any::type_name::<T>() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent { round: 0, kind: EventKind::Arrival { request: 1, clip: 9 } },
            TraceEvent { round: 3, kind: EventKind::Admission { request: 1, clip: 9, wait: 3 } },
            TraceEvent { round: 3, kind: EventKind::Rejection { request: 2, clip: 4 } },
            TraceEvent { round: 5, kind: EventKind::DiskFailure { disk: 7 } },
            TraceEvent {
                round: 6,
                kind: EventKind::RecoveryRead { request: 1, disk: 2, block: 4 },
            },
            TraceEvent { round: 6, kind: EventKind::Reconstruction { request: 1, block: 4 } },
            TraceEvent {
                round: 6,
                kind: EventKind::DiskServe { disk: 2, blocks: 8, busy_us: 1234, queue: 11 },
            },
            TraceEvent { round: 7, kind: EventKind::ServiceError { disk: 3, dropped: 2 } },
            TraceEvent { round: 8, kind: EventKind::RebuildProgress { rebuilt: 10, total: 100 } },
            TraceEvent { round: 9, kind: EventKind::RebuildComplete { disk: 7 } },
            TraceEvent { round: 9, kind: EventKind::DiskRepair { disk: 7 } },
            TraceEvent { round: 9, kind: EventKind::DiskTransient { disk: 1, rounds: 5 } },
            TraceEvent { round: 9, kind: EventKind::DiskTransientEnd { disk: 1 } },
            TraceEvent { round: 9, kind: EventKind::DiskSlow { disk: 4, factor: 3, rounds: 12 } },
            TraceEvent { round: 9, kind: EventKind::DiskSlowEnd { disk: 4 } },
            TraceEvent { round: 10, kind: EventKind::StreamLost { request: 6, block: 17 } },
            TraceEvent { round: 10, kind: EventKind::DegradedRefusal { request: 7, clip: 2 } },
            TraceEvent { round: 10, kind: EventKind::Hiccup { request: 5, block: 2 } },
            TraceEvent { round: 10, kind: EventKind::LateServe { request: 5, block: 3 } },
            TraceEvent { round: 11, kind: EventKind::Completion { request: 1 } },
            TraceEvent { round: 12, kind: EventKind::NodeFailure { node: 3 } },
            TraceEvent {
                round: 12,
                kind: EventKind::StreamMigrated { request: 6, from: 3, to: 5 },
            },
            TraceEvent { round: 13, kind: EventKind::NodeRepair { node: 3 } },
            TraceEvent {
                round: 14,
                kind: EventKind::CrossNodeRebuildRead { node: 3, source: 5, blocks: 4 },
            },
            TraceEvent { round: 15, kind: EventKind::NodeRebuildComplete { node: 3 } },
        ]
    }

    #[test]
    fn samples_cover_every_declared_kind() {
        let declared: BTreeSet<_> = EventKind::extremes().iter().map(EventKind::name).collect();
        let sampled: BTreeSet<_> = samples().iter().map(|e| e.kind.name()).collect();
        assert_eq!(sampled, declared);
    }

    #[test]
    fn jsonl_roundtrips_every_kind() {
        let extremes = EventKind::extremes().into_iter().map(|kind| TraceEvent { round: 7, kind });
        for event in samples().into_iter().chain(extremes) {
            let line = event.to_jsonl();
            assert!(line.ends_with('\n'));
            assert_eq!(TraceEvent::parse_jsonl(&line), Ok(event), "{line}");
        }
    }

    #[test]
    fn decimal_writer_matches_format() {
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn the_largest_round_roundtrips() {
        let event = TraceEvent { round: u64::MAX, kind: EventKind::DiskFailure { disk: 3 } };
        let line = event.to_jsonl();
        assert_eq!(
            line,
            "{\"round\":18446744073709551615,\"event\":\"disk_failure\",\"disk\":3}\n"
        );
        assert_eq!(TraceEvent::parse_jsonl(&line), Ok(event));
    }

    #[test]
    fn one_past_a_fields_maximum_is_rejected_naming_the_key() {
        for kind in EventKind::extremes() {
            let line = TraceEvent { round: 1, kind }.to_jsonl();
            let (fields, used) = kind.fields();
            for &(key, max) in fields[..used].iter().filter(|&&(_, v)| v > 0) {
                let past = u128::from(max) + 1;
                let bad = line.replace(&format!("\"{key}\":{max},"), &format!("\"{key}\":{past},"));
                let bad =
                    bad.replace(&format!("\"{key}\":{max}}}"), &format!("\"{key}\":{past}}}"));
                let ty = if max == u64::from(u32::MAX) { "u32" } else { "u64" };
                let err = TraceEvent::parse_jsonl(&bad).expect_err(&bad);
                assert_eq!(err, TraceParseError::OutOfRange { key, ty }, "{bad}");
                assert!(err.to_string().contains(key), "{err}");
            }
        }
    }

    #[test]
    fn jsonl_shape_is_flat_and_stable() {
        let e =
            TraceEvent { round: 3, kind: EventKind::Admission { request: 1, clip: 9, wait: 3 } };
        assert_eq!(
            e.to_jsonl(),
            "{\"round\":3,\"event\":\"admission\",\"request\":1,\"clip\":9,\"wait\":3}\n"
        );
    }

    #[test]
    fn csv_rows_carry_every_field_in_one_column_set() {
        let header = TraceEvent::csv_header();
        let columns: Vec<&str> = header.trim_end().split(',').collect();
        for event in samples() {
            let mut row = String::new();
            event.write_csv(&mut row);
            let cells: Vec<&str> = row.trim_end().split(',').collect();
            assert_eq!(cells.len(), columns.len(), "{row}");
            let cell = |name: &str| {
                let at = columns.iter().position(|c| *c == name);
                cells[at.unwrap_or_else(|| panic!("no CSV column for {name}: {row}"))]
            };
            let (fields, used) = event.kind.fields();
            for &(key, value) in &fields[..used] {
                let shown = match key {
                    "total" => cell("rebuilt").split('/').nth(1),
                    _ => cell(key).split('/').next(),
                };
                assert_eq!(shown, Some(value.to_string().as_str()), "{key} in {row}");
            }
        }
    }

    #[test]
    fn malformed_lines_name_their_cause() {
        use TraceParseError::{MissingKey, NoTag, NotNumeric, UnknownTag};
        let cases = [
            ("", NoTag),
            ("not json", NoTag),
            ("{\"round\":1}", NoTag),
            ("{\"round\":1,\"event\":7}", NoTag),
            ("{\"round\":1,\"event\":\"nope\"}", UnknownTag("nope".to_string())),
            ("{\"event\":\"arrival\",\"request\":1,\"clip\":2}", MissingKey("round")),
            ("{\"round\":1,\"event\":\"arrival\",\"request\":1}", MissingKey("clip")),
            ("{\"round\":1,\"event\":\"disk_failure\",\"disks\":3}", MissingKey("disk")),
            ("{\"round\":1,\"event\":\"disk_failure\",\"disk\":-1}", NotNumeric("disk")),
            ("{\"round\":1,\"event\":\"disk_failure\",\"disk\":\"3\"}", NotNumeric("disk")),
            ("{\"round\":1,\"event\":\"disk_failure\",\"disk\":1.5}", NotNumeric("disk")),
            ("{\"round\":x,\"event\":\"disk_failure\",\"disk\":1}", NotNumeric("round")),
        ];
        for (line, cause) in cases {
            assert_eq!(TraceEvent::parse_jsonl(line), Err(cause), "{line}");
        }
    }
}
