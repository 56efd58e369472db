//! Control-frame codec for the process-level cluster protocol.
//!
//! Where [`crate::wire`] encodes *data* (tuple batches crossing a
//! boundary edge), this module encodes the *conversation around* the
//! data: the versioned handshake a coordinator performs against a
//! `qapctl host --listen` process, execution-unit deployment, the
//! data/end-of-stream envelope, result return and typed error
//! reporting.
//!
//! A control frame is `[u32 payload_len][u8 tag][payload]`. The
//! `Deploy`/`Result` payloads are opaque here — their encodings belong
//! to the cluster layer, which knows what an execution unit is — and a
//! `Data` frame wraps one ordinary lane frame
//! ([`crate::encode_column_batch`]) together with the plan-node id it
//! belongs to (see [`ControlFrame::Data`] for which id space each
//! direction uses), so the inner bytes flow into the engine's frame
//! ingestion untouched.
//!
//! The decoder follows the same hardening discipline as the wire
//! codec: truncation, length disagreement, unknown tags, trailing bytes
//! and invalid UTF-8 all surface as typed [`TypeError`]s — never a
//! panic, never a partial parse (the control-codec proptests mutate
//! valid frames every way the chaos suite's link faults can).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::wire::want;
use crate::{TypeError, TypeResult};

/// Version of the coordinator⇄host protocol. A host rejects a `Hello`
/// carrying any other version with [`ControlFrame::Error`] (kind
/// [`ERROR_VERSION`]) — mixed-version clusters fail fast at the
/// handshake instead of mis-decoding deployment payloads mid-run.
pub const PROTOCOL_VERSION: u32 = 9;

/// Byte length of a control-frame header: `u32` payload length plus
/// `u8` tag.
pub const CONTROL_HEADER_LEN: usize = 5;

/// Largest payload a control frame's `u32` length word can describe.
pub const MAX_CONTROL_PAYLOAD: usize = u32::MAX as usize;

/// [`ControlFrame::Error`] kind: handshake version mismatch.
pub const ERROR_VERSION: u8 = 1;
/// [`ControlFrame::Error`] kind: deployment payload rejected.
pub const ERROR_DEPLOY: u8 = 2;
/// [`ControlFrame::Error`] kind: execution failed on the remote host.
pub const ERROR_EXEC: u8 = 3;
/// [`ControlFrame::Error`] kind: link-level fault (unexpected frame,
/// protocol violation).
pub const ERROR_LINK: u8 = 4;

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_DEPLOY: u8 = 3;
const TAG_DEPLOY_ACK: u8 = 4;
const TAG_DATA: u8 = 5;
const TAG_EOS: u8 = 6;
const TAG_RESULT: u8 = 7;
const TAG_ERROR: u8 = 8;
const TAG_MIGRATE: u8 = 9;
const TAG_MIGRATE_ACK: u8 = 10;

/// One message of the coordinator⇄host protocol.
///
/// A session is: `Hello` → `Welcome` (or `Error`), `Deploy` →
/// `DeployAck` (or `Error`), then `Data`* interleaved both ways, `Eos`
/// from the coordinator once its feed is exhausted, `Data`* + `Result`
/// (or `Error`) back from the host. An adaptive coordinator may
/// interleave `Migrate` → `MigrateAck` exchanges with the feed to
/// drain and hand off group state at epoch boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// Coordinator → host: protocol version and the cluster host id
    /// this process will execute as.
    Hello {
        /// Coordinator's [`PROTOCOL_VERSION`].
        version: u32,
        /// Cluster host id assigned to this process.
        host: u32,
    },
    /// Host → coordinator: handshake accepted.
    Welcome {
        /// Host's [`PROTOCOL_VERSION`] (equal, or the `Hello` would
        /// have been rejected).
        version: u32,
    },
    /// Coordinator → host: what the host plans its execution unit from
    /// (opaque payload, encoded by the cluster layer): the query set as
    /// GSQL, its catalog, the partitioning and knobs, which unit is the
    /// host's, and a fingerprint of the coordinator's plan.
    Deploy(
        /// The encoded deployment inputs.
        Bytes,
    ),
    /// Host → coordinator: deployment planned, fingerprint matched and
    /// unit compiled.
    DeployAck,
    /// A boundary data frame, either direction: the inner bytes are one
    /// lane frame exactly as [`crate::encode_column_batch`] produced it.
    Data {
        /// Plan-node id the frame belongs to. Coordinator → host: the
        /// partition scan being fed, as the receiving unit's *local*
        /// node id (node ids cross a port as local ids; the sender
        /// translates once). Host → coordinator: the *global* id of the
        /// boundary producer.
        producer: u32,
        /// The framed batch.
        frame: Bytes,
    },
    /// No more `Data` frames will follow from the sender.
    Eos,
    /// Host → coordinator: serialized unit outcome (opaque payload,
    /// encoded by the cluster layer). Terminal for the session.
    Result(
        /// The serialized unit outcome.
        Bytes,
    ),
    /// Either direction: typed failure report. Terminal for the
    /// session.
    Error {
        /// Failure family ([`ERROR_VERSION`], [`ERROR_DEPLOY`],
        /// [`ERROR_EXEC`], [`ERROR_LINK`]).
        kind: u8,
        /// Human-readable cause.
        message: String,
    },
    /// Coordinator → host: a drain-and-handoff migration command
    /// (opaque payload, encoded by the cluster layer: either "flush to
    /// a boundary and extract re-routed group state" or "absorb shipped
    /// state rows").
    Migrate(
        /// The serialized migration command.
        Bytes,
    ),
    /// Host → coordinator: reply to a [`ControlFrame::Migrate`]
    /// command (opaque payload: the extracted state rows and each
    /// row's partition under the new table, empty for an absorb
    /// acknowledgement).
    MigrateAck(
        /// The serialized migration reply.
        Bytes,
    ),
}

fn payload_len(frame: &ControlFrame) -> usize {
    match frame {
        ControlFrame::Hello { .. } => 8,
        ControlFrame::Welcome { .. } => 4,
        ControlFrame::Deploy(p)
        | ControlFrame::Result(p)
        | ControlFrame::Migrate(p)
        | ControlFrame::MigrateAck(p) => p.len(),
        ControlFrame::DeployAck | ControlFrame::Eos => 0,
        ControlFrame::Data { frame, .. } => 4 + frame.len(),
        ControlFrame::Error { message, .. } => 1 + 4 + message.len(),
    }
}

/// Encodes one control frame, reusing `scratch` as the staging buffer
/// exactly as [`crate::encode_column_batch`] does. A payload that overflows the
/// `u32` header length (or an `Error` message longer than `u32::MAX`)
/// is refused with [`TypeError::FrameTooLarge`] before any bytes are
/// staged.
pub fn encode_control(frame: &ControlFrame, scratch: &mut BytesMut) -> TypeResult<Bytes> {
    scratch.clear();
    let payload = payload_len(frame);
    if payload > MAX_CONTROL_PAYLOAD {
        return Err(TypeError::FrameTooLarge {
            context: "control payload",
            size: payload,
            limit: MAX_CONTROL_PAYLOAD,
        });
    }
    scratch.reserve(CONTROL_HEADER_LEN + payload);
    scratch.put_u32(payload as u32);
    match frame {
        ControlFrame::Hello { version, host } => {
            scratch.put_u8(TAG_HELLO);
            scratch.put_u32(*version);
            scratch.put_u32(*host);
        }
        ControlFrame::Welcome { version } => {
            scratch.put_u8(TAG_WELCOME);
            scratch.put_u32(*version);
        }
        ControlFrame::Deploy(p) => {
            scratch.put_u8(TAG_DEPLOY);
            scratch.put_slice(p);
        }
        ControlFrame::DeployAck => scratch.put_u8(TAG_DEPLOY_ACK),
        ControlFrame::Data { producer, frame } => {
            scratch.put_u8(TAG_DATA);
            scratch.put_u32(*producer);
            scratch.put_slice(frame);
        }
        ControlFrame::Eos => scratch.put_u8(TAG_EOS),
        ControlFrame::Result(p) => {
            scratch.put_u8(TAG_RESULT);
            scratch.put_slice(p);
        }
        ControlFrame::Error { kind, message } => {
            scratch.put_u8(TAG_ERROR);
            scratch.put_u8(*kind);
            scratch.put_u32(message.len() as u32);
            scratch.put_slice(message.as_bytes());
        }
        ControlFrame::Migrate(p) => {
            scratch.put_u8(TAG_MIGRATE);
            scratch.put_slice(p);
        }
        ControlFrame::MigrateAck(p) => {
            scratch.put_u8(TAG_MIGRATE_ACK);
            scratch.put_slice(p);
        }
    }
    debug_assert_eq!(scratch.len(), CONTROL_HEADER_LEN + payload);
    Ok(scratch.split().freeze())
}

/// Decodes one control frame produced by [`encode_control`].
///
/// Truncated buffers, header/payload length disagreements, unknown
/// tags, trailing bytes and invalid UTF-8 in an `Error` message all
/// report typed [`TypeError`]s — a damaged control frame never panics.
pub fn decode_control(mut buf: Bytes) -> TypeResult<ControlFrame> {
    if buf.remaining() < CONTROL_HEADER_LEN {
        return Err(TypeError::Truncated {
            context: "control header",
            need: CONTROL_HEADER_LEN,
            have: buf.remaining(),
        });
    }
    let payload = buf.get_u32() as usize;
    let tag = buf.get_u8();
    if buf.remaining() != payload {
        return Err(TypeError::FrameLengthMismatch {
            declared: payload,
            actual: buf.remaining(),
        });
    }
    let frame = match tag {
        TAG_HELLO => {
            want(&buf, "hello body", 8)?;
            ControlFrame::Hello {
                version: buf.get_u32(),
                host: buf.get_u32(),
            }
        }
        TAG_WELCOME => {
            want(&buf, "welcome body", 4)?;
            ControlFrame::Welcome {
                version: buf.get_u32(),
            }
        }
        TAG_DEPLOY => {
            let p = buf.copy_to_bytes(buf.remaining());
            ControlFrame::Deploy(p)
        }
        TAG_DEPLOY_ACK => ControlFrame::DeployAck,
        TAG_DATA => {
            want(&buf, "data producer", 4)?;
            let producer = buf.get_u32();
            let frame = buf.copy_to_bytes(buf.remaining());
            ControlFrame::Data { producer, frame }
        }
        TAG_EOS => ControlFrame::Eos,
        TAG_RESULT => {
            let p = buf.copy_to_bytes(buf.remaining());
            ControlFrame::Result(p)
        }
        TAG_ERROR => {
            want(&buf, "error body", 5)?;
            let kind = buf.get_u8();
            let len = buf.get_u32() as usize;
            want(&buf, "error message", len)?;
            let raw = buf.copy_to_bytes(len);
            let message = std::str::from_utf8(&raw)
                .map_err(|_| TypeError::Corrupt("error message is not UTF-8"))?
                .to_string();
            ControlFrame::Error { kind, message }
        }
        TAG_MIGRATE => {
            let p = buf.copy_to_bytes(buf.remaining());
            ControlFrame::Migrate(p)
        }
        TAG_MIGRATE_ACK => {
            let p = buf.copy_to_bytes(buf.remaining());
            ControlFrame::MigrateAck(p)
        }
        other => return Err(TypeError::BadTag(other)),
    };
    if buf.remaining() != 0 {
        return Err(TypeError::Corrupt("trailing bytes after control payload"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ControlFrame> {
        vec![
            ControlFrame::Hello {
                version: PROTOCOL_VERSION,
                host: 3,
            },
            ControlFrame::Welcome {
                version: PROTOCOL_VERSION,
            },
            ControlFrame::Deploy(Bytes::from(b"unit-bytes".to_vec())),
            ControlFrame::Deploy(Bytes::new()),
            ControlFrame::DeployAck,
            ControlFrame::Data {
                producer: 42,
                frame: Bytes::from(vec![0u8; 8]),
            },
            ControlFrame::Data {
                producer: 0,
                frame: Bytes::new(),
            },
            ControlFrame::Eos,
            ControlFrame::Result(Bytes::from(b"outcome".to_vec())),
            ControlFrame::Error {
                kind: ERROR_VERSION,
                message: "version 1 != 2".into(),
            },
            ControlFrame::Error {
                kind: ERROR_EXEC,
                message: String::new(),
            },
            ControlFrame::Migrate(Bytes::from(b"drain-command".to_vec())),
            ControlFrame::Migrate(Bytes::new()),
            ControlFrame::MigrateAck(Bytes::from(b"state-rows".to_vec())),
            ControlFrame::MigrateAck(Bytes::new()),
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        let mut scratch = BytesMut::new();
        for frame in samples() {
            let bytes = encode_control(&frame, &mut scratch).unwrap();
            assert_eq!(
                bytes.len(),
                CONTROL_HEADER_LEN + payload_len(&frame),
                "{frame:?}"
            );
            assert_eq!(decode_control(bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn truncated_buffers_report_typed_errors() {
        let mut scratch = BytesMut::new();
        for frame in samples() {
            let bytes = encode_control(&frame, &mut scratch).unwrap();
            for cut in 0..bytes.len() {
                let err = decode_control(bytes.slice(..cut)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        TypeError::Truncated { .. } | TypeError::FrameLengthMismatch { .. }
                    ),
                    "{frame:?} cut at {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn extended_buffers_report_typed_errors() {
        let mut scratch = BytesMut::new();
        for frame in samples() {
            let bytes = encode_control(&frame, &mut scratch).unwrap();
            let mut longer = bytes.to_vec();
            longer.push(0xAB);
            let err = decode_control(Bytes::from(longer)).unwrap_err();
            // Opaque-tail variants absorb arbitrary bytes into their
            // payload only when the header length agrees; an appended
            // byte always disagrees with the declared length.
            assert!(
                matches!(err, TypeError::FrameLengthMismatch { .. }),
                "{frame:?}: {err}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let raw: Vec<u8> = vec![0, 0, 0, 0, 99];
        assert_eq!(
            decode_control(Bytes::from(raw)).unwrap_err(),
            TypeError::BadTag(99)
        );
    }

    #[test]
    fn non_utf8_error_message_is_corrupt() {
        let mut scratch = BytesMut::new();
        let bytes = encode_control(
            &ControlFrame::Error {
                kind: ERROR_LINK,
                message: "ab".into(),
            },
            &mut scratch,
        )
        .unwrap();
        let mut raw = bytes.to_vec();
        let n = raw.len();
        raw[n - 2] = 0xFF;
        raw[n - 1] = 0xFE;
        assert!(matches!(
            decode_control(Bytes::from(raw)).unwrap_err(),
            TypeError::Corrupt(_)
        ));
    }
}
