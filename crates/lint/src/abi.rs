//! `proto.abi` — golden wire-ABI lock for bsa-link (DESIGN.md §14).
//!
//! `canonical_entries` encodes one fixed, fully-populated instance of
//! every [`Message`] variant (both [`StreamPayload`] arms get their own
//! entry, and the `InjectFaults` plan exercises every fault target and
//! kind) and fingerprints each byte layout: payload tag, encoded length,
//! and an FNV-1a-64 hash of the bytes. The fingerprints live in the
//! committed `link.abi.lock`; `check` fails on any drift, so a wire
//! format change is impossible without a lock-file diff in the same PR —
//! the encoding is a reviewed artifact, exactly like the allowlist.
//!
//! Regenerate deliberately with `cargo run -p bsa-lint -- abi regen`.

use bsa_link::{
    fnv1a64, ChipKind, CultureSpec, DegradationSummary, DnaChipSpec, ErrorCode, FaultEntrySpec,
    FaultKindSpec, FaultPlanSpec, FaultTargetSpec, Message, NeuroChipSpec, PixelCount,
    RecordingEntry, SerialLinkSummary, StatsSnapshot, StreamPayload, TargetSpec, YieldSummary,
};

use crate::rules::{violation, Violation};

/// Workspace-relative path of the committed lock file.
pub const LOCK_FILE: &str = "link.abi.lock";

/// One locked encoding fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbiEntry {
    /// Variant name, with the payload arm appended where one variant has
    /// several shapes (`StreamData/NeuroFrames`).
    pub variant: String,
    /// Wire tag (first payload byte).
    pub tag: u8,
    /// Encoded payload length in bytes, tag included.
    pub len: usize,
    /// FNV-1a-64 over the payload bytes.
    pub hash: u64,
}

/// The contents of `link.abi.lock` on disk, or its absence.
#[derive(Debug, Clone)]
pub enum LockState {
    /// The lock file's text.
    Present(String),
    /// No lock file — `check` fails until `abi regen` commits one.
    Missing,
}

/// What the ABI pass saw, for the report.
#[derive(Debug, Clone, Default)]
pub struct AbiSummary {
    /// Encodings fingerprinted at HEAD.
    pub variants: usize,
    /// Fingerprints that matched the lock.
    pub matched: usize,
    /// Whether a lock file was found at all.
    pub lock_present: bool,
}

/// One canonical, deterministic instance per wire shape. Values are
/// arbitrary but fixed forever: the lock pins the *layout*, and distinct
/// field values make transpositions (swapped fields of one width) show
/// up in the hash.
fn canonical_messages() -> Vec<(&'static str, Message)> {
    vec![
        (
            "Hello",
            Message::Hello {
                client: "bsa-abi".to_string(),
            },
        ),
        (
            "HelloAck",
            Message::HelloAck {
                server: "station".to_string(),
                version: 1,
            },
        ),
        ("Ping", Message::Ping { token: 0x0102_0304 }),
        ("Pong", Message::Pong { token: 0x0102_0304 }),
        (
            "AttachDna",
            Message::AttachDna(DnaChipSpec {
                rows: 3,
                cols: 5,
                seed: 7,
                frame_time_s: 0.25,
            }),
        ),
        (
            "AttachNeuro",
            Message::AttachNeuro(NeuroChipSpec {
                rows: 3,
                cols: 5,
                channels: 4,
                seed: 7,
                frame_rate_hz: 2000.0,
            }),
        ),
        (
            "Attached",
            Message::Attached {
                chip: 2,
                kind: ChipKind::Neuro,
                rows: 3,
                cols: 5,
            },
        ),
        ("Detach", Message::Detach { chip: 2 }),
        ("Detached", Message::Detached { chip: 2 }),
        (
            "ConfigureAssay",
            Message::ConfigureAssay {
                chip: 2,
                probes: vec!["ACGT".to_string(), "TTAG".to_string()],
                targets: vec![TargetSpec {
                    sequence: "ACGT".to_string(),
                    concentration_molar: 1e-9,
                }],
            },
        ),
        ("Calibrate", Message::Calibrate { chip: 2 }),
        (
            "CalibrationDone",
            Message::CalibrationDone {
                chip: 2,
                healthy: 13,
                out_of_family: 2,
                dead: 1,
            },
        ),
        (
            "InjectFaults",
            Message::InjectFaults {
                chip: 2,
                plan: FaultPlanSpec {
                    seed: 9,
                    entries: vec![
                        FaultEntrySpec {
                            target: FaultTargetSpec::Pixel { row: 1, col: 2 },
                            kind: FaultKindSpec::DeadPixel,
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::ArrayWide { density: 0.125 },
                            kind: FaultKindSpec::StuckCount { count: 42 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::LeakyElectrode { leakage_a: 1e-12 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::ComparatorDrift { offset_v: 0.01 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::ComparatorStuck { high: true },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::DacSaturation { limit: 0.5 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::GainClipping { limit_v: 0.25 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::ChannelLoss { channel: 3 },
                        },
                        FaultEntrySpec {
                            target: FaultTargetSpec::Global,
                            kind: FaultKindSpec::SerialBitErrors { rate: 1e-6 },
                        },
                    ],
                },
            },
        ),
        ("QueryHealth", Message::QueryHealth { chip: 2 }),
        (
            "HealthReport",
            Message::HealthReport {
                chip: 2,
                report: YieldSummary {
                    total_pixels: 15,
                    healthy: 12,
                    out_of_family: 2,
                    dead: 1,
                    lost_channels: vec![3],
                    total_channels: 4,
                    injected: 9,
                    serial: SerialLinkSummary {
                        clean_words: 100,
                        recovered_words: 5,
                        unrecovered_words: 1,
                        rereads: 6,
                    },
                    degradation: DegradationSummary::Degraded,
                },
            },
        ),
        (
            "MaskPixels",
            Message::MaskPixels {
                chip: 2,
                pixels: vec![0, 7, 14],
            },
        ),
        ("Masked", Message::Masked { chip: 2, masked: 3 }),
        (
            "RunAssay",
            Message::RunAssay {
                chip: 2,
                stream_counts: true,
            },
        ),
        (
            "AssayResult",
            Message::AssayResult {
                chip: 2,
                counts: vec![5, 6, 7],
                estimated_currents_a: vec![1e-12, 2e-12],
            },
        ),
        (
            "StartNeuroStream",
            Message::StartNeuroStream {
                chip: 2,
                frames: 8,
                chunk_frames: 2,
                t0_s: 0.5,
                culture: CultureSpec {
                    seed: 11,
                    neuron_count: 5,
                    spike_duration_s: 0.002,
                },
            },
        ),
        (
            "StreamData/NeuroFrames",
            Message::StreamData {
                chip: 2,
                seq: 1,
                payload: StreamPayload::NeuroFrames {
                    first_frame: 4,
                    rows: 2,
                    cols: 2,
                    samples: vec![0.25, -0.5, 0.75, 1.0],
                },
            },
        ),
        (
            "StreamData/DnaCounts",
            Message::StreamData {
                chip: 2,
                seq: 2,
                payload: StreamPayload::DnaCounts {
                    readings: vec![PixelCount {
                        row: 1,
                        col: 2,
                        count: 99,
                    }],
                },
            },
        ),
        (
            "StreamEnd",
            Message::StreamEnd {
                chip: 2,
                frames_sent: 8,
                frames_dropped: 1,
            },
        ),
        ("QueryStats", Message::QueryStats),
        (
            "StatsReport",
            Message::StatsReport(StatsSnapshot {
                sessions_opened: 1,
                sessions_active: 2,
                chips_attached: 3,
                requests: 4,
                frames_served: 5,
                frames_dropped: 6,
                chunks_sent: 7,
                bytes_sent: 8,
                queue_peak: 9,
            }),
        ),
        ("Ack", Message::Ack),
        (
            "ErrorReply",
            Message::ErrorReply {
                // `StoreError` is the last-numbered code, so inserting or
                // reordering codes shifts this byte and trips the hash.
                code: ErrorCode::StoreError,
                message: "boom".to_string(),
            },
        ),
        (
            "StartRecording",
            Message::StartRecording {
                chip: 2,
                name: "take-1".to_string(),
            },
        ),
        (
            "RecordingStarted",
            Message::RecordingStarted {
                chip: 2,
                name: "take-1".to_string(),
            },
        ),
        ("StopRecording", Message::StopRecording { chip: 2 }),
        (
            "RecordingStopped",
            Message::RecordingStopped {
                chip: 2,
                name: "take-1".to_string(),
                frames_written: 48,
                frames_dropped: 3,
                bytes_written: 6_144,
            },
        ),
        ("ListRecordings", Message::ListRecordings),
        (
            "RecordingList",
            Message::RecordingList {
                recordings: vec![RecordingEntry {
                    name: "take-1".to_string(),
                    kind: ChipKind::Neuro,
                    rows: 3,
                    cols: 5,
                    frames: 48,
                    bytes: 6_144,
                    config_hash: 0x0102_0304_0506_0708,
                }],
            },
        ),
        (
            "Replay",
            Message::Replay {
                name: "take-1".to_string(),
                chunk_frames: 8,
            },
        ),
    ]
}

/// Fingerprints of every canonical encoding at HEAD.
pub fn canonical_entries() -> Vec<AbiEntry> {
    canonical_messages()
        .into_iter()
        .map(|(name, msg)| {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            AbiEntry {
                variant: name.to_string(),
                tag: payload.first().copied().unwrap_or(0),
                len: payload.len(),
                hash: fnv1a64(&payload),
            }
        })
        .collect()
}

/// Renders the lock-file text for `entries`.
pub fn render_lock(entries: &[AbiEntry]) -> String {
    let mut out = String::new();
    out.push_str(
        "# bsa-link wire-ABI lock. One line per canonical encoding:\n\
         #   <variant> tag=<first payload byte> len=<payload bytes> fnv=<FNV-1a-64>\n\
         # `cargo run -p bsa-lint -- check` fails if HEAD's encodings drift from\n\
         # this file; regenerate DELIBERATELY with `cargo run -p bsa-lint -- abi regen`\n\
         # and review the diff like any other wire-format change.\n",
    );
    for e in entries {
        out.push_str(&format!(
            "{} tag=0x{:02X} len={} fnv={:016x}\n",
            e.variant, e.tag, e.len, e.hash
        ));
    }
    out
}

/// Parses lock-file text back into entries with their 1-based line
/// numbers. Malformed lines are returned as errors, not skipped — a
/// corrupted lock must fail loudly.
pub fn parse_lock(text: &str) -> Result<Vec<(AbiEntry, usize)>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let variant = parts
            .next()
            .ok_or_else(|| format!("{LOCK_FILE}:{line_no}: empty entry"))?;
        let mut tag = None;
        let mut len = None;
        let mut hash = None;
        for field in parts {
            if let Some(v) = field.strip_prefix("tag=0x") {
                tag = u8::from_str_radix(v, 16).ok();
            } else if let Some(v) = field.strip_prefix("len=") {
                len = v.parse::<usize>().ok();
            } else if let Some(v) = field.strip_prefix("fnv=") {
                hash = u64::from_str_radix(v, 16).ok();
            } else {
                return Err(format!(
                    "{LOCK_FILE}:{line_no}: unrecognised field `{field}`"
                ));
            }
        }
        match (tag, len, hash) {
            (Some(tag), Some(len), Some(hash)) => entries.push((
                AbiEntry {
                    variant: variant.to_string(),
                    tag,
                    len,
                    hash,
                },
                line_no,
            )),
            _ => {
                return Err(format!(
                    "{LOCK_FILE}:{line_no}: need tag=0x…, len=… and fnv=… fields"
                ))
            }
        }
    }
    Ok(entries)
}

/// Compares HEAD encodings against the lock and reports drift as
/// `proto.abi` violations (never allowlistable — the only fix is a code
/// revert or a deliberate `abi regen`).
pub fn abi_pass(current: &[AbiEntry], lock: &LockState, out: &mut Vec<Violation>) -> AbiSummary {
    let mut summary = AbiSummary {
        variants: current.len(),
        matched: 0,
        lock_present: matches!(lock, LockState::Present(_)),
    };
    let text = match lock {
        LockState::Present(text) => text,
        LockState::Missing => {
            out.push(violation(
                LOCK_FILE,
                1,
                "proto.abi",
                "wire-ABI lock file is missing; run `cargo run -p bsa-lint -- abi regen` \
                 and commit it",
            ));
            return summary;
        }
    };
    let locked = match parse_lock(text) {
        Ok(entries) => entries,
        Err(msg) => {
            out.push(violation(LOCK_FILE, 1, "proto.abi", msg));
            return summary;
        }
    };
    for cur in current {
        match locked.iter().find(|(e, _)| e.variant == cur.variant) {
            None => out.push(violation(
                LOCK_FILE,
                1,
                "proto.abi",
                format!(
                    "`{}` encodes at HEAD but is not in {LOCK_FILE}; if the new wire shape \
                     is intentional, run `abi regen` and commit the diff",
                    cur.variant
                ),
            )),
            Some((e, line)) if e != cur => out.push(violation(
                LOCK_FILE,
                *line,
                "proto.abi",
                format!(
                    "`{}` encoding drifted from the lock: locked tag=0x{:02X} len={} \
                     fnv={:016x}, HEAD tag=0x{:02X} len={} fnv={:016x}; revert the wire \
                     change or run `abi regen` deliberately",
                    cur.variant, e.tag, e.len, e.hash, cur.tag, cur.len, cur.hash
                ),
            )),
            Some(_) => summary.matched += 1,
        }
    }
    for (e, line) in &locked {
        if !current.iter().any(|c| c.variant == e.variant) {
            out.push(violation(
                LOCK_FILE,
                *line,
                "proto.abi",
                format!(
                    "`{}` is locked but no longer encodes at HEAD — removing a wire shape \
                     is a breaking change; run `abi regen` if intentional",
                    e.variant
                ),
            ));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_cover_every_message_variant() {
        let entries = canonical_entries();
        // 33 Message variants, with StreamData split per payload arm.
        assert_eq!(entries.len(), 34);
        let mut names: Vec<&str> = entries.iter().map(|e| e.variant.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 34, "duplicate variant names");
    }

    #[test]
    fn entries_are_deterministic() {
        assert_eq!(canonical_entries(), canonical_entries());
    }

    #[test]
    fn tags_are_unique_per_variant() {
        let entries = canonical_entries();
        let mut tags: Vec<u8> = entries.iter().map(|e| e.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        // Both StreamData arms share 0x13; everything else is distinct.
        assert_eq!(tags.len(), entries.len() - 1);
    }

    #[test]
    fn render_parse_roundtrip() {
        let entries = canonical_entries();
        let text = render_lock(&entries);
        let parsed = parse_lock(&text).expect("parses");
        let back: Vec<AbiEntry> = parsed.into_iter().map(|(e, _)| e).collect();
        assert_eq!(back, entries);
    }

    #[test]
    fn matching_lock_is_clean() {
        let entries = canonical_entries();
        let lock = LockState::Present(render_lock(&entries));
        let mut out = Vec::new();
        let summary = abi_pass(&entries, &lock, &mut out);
        assert!(out.is_empty(), "{out:#?}");
        assert_eq!(summary.matched, summary.variants);
        assert!(summary.lock_present);
    }

    #[test]
    fn missing_lock_is_flagged() {
        let entries = canonical_entries();
        let mut out = Vec::new();
        let summary = abi_pass(&entries, &LockState::Missing, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().expect("one").rule, "proto.abi");
        assert!(!summary.lock_present);
    }

    #[test]
    fn drifted_hash_is_flagged_with_both_fingerprints() {
        let entries = canonical_entries();
        let mut locked = entries.clone();
        if let Some(e) = locked.first_mut() {
            e.hash ^= 1;
        }
        let lock = LockState::Present(render_lock(&locked));
        let mut out = Vec::new();
        abi_pass(&entries, &lock, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        let v = out.first().expect("one");
        assert_eq!(v.rule, "proto.abi");
        assert!(v.message.contains("drifted"));
    }

    #[test]
    fn added_and_removed_variants_are_flagged() {
        let entries = canonical_entries();
        let mut locked = entries.clone();
        let removed = locked.pop().expect("non-empty");
        locked.push(AbiEntry {
            variant: "Ghost".to_string(),
            tag: 0x7F,
            len: 1,
            hash: 1,
        });
        let lock = LockState::Present(render_lock(&locked));
        let mut out = Vec::new();
        abi_pass(&entries, &lock, &mut out);
        let msgs: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(out.len(), 2, "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains(&removed.variant)));
        assert!(msgs.iter().any(|m| m.contains("Ghost")));
    }

    #[test]
    fn corrupted_lock_fails_loudly() {
        let lock = LockState::Present("Hello tag=banana\n".to_string());
        let mut out = Vec::new();
        abi_pass(&canonical_entries(), &lock, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out
            .first()
            .expect("one")
            .message
            .contains("link.abi.lock:1"));
    }

    #[test]
    fn canonical_payloads_decode_back() {
        // The canonical instances must themselves be valid wire messages.
        for (name, msg) in canonical_messages() {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let back = Message::decode_payload(&payload)
                .unwrap_or_else(|e| panic!("{name} does not round-trip: {e:?}"));
            assert_eq!(back, msg, "{name}");
        }
    }
}
