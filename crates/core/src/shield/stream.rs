//! Stream-interface protection: securing PCIe-style AXI4 channels.
//!
//! §5.1 notes that "Shells commonly provide a generic AXI4 interface
//! for both memory and PCIe. Thus, the Shield can also support
//! additional interfaces such as PCIe via the same AXI4 interface."
//! Device memory is address-indexed, so chunk tags bind `(region,
//! index, epoch)`; a PCIe/AXI-stream channel has no addresses — its
//! integrity unit is the *frame* and its replay/reorder defence is a
//! *sequence number*. This module is that engine: an authenticated,
//! strictly-ordered, bidirectional framing layer that a Shield exposes
//! on a stream port, with the Data Owner holding the matching
//! client-side [`StreamEndpoint`].
//!
//! Guarantees per direction (each with its own key and counter):
//!
//! * **confidentiality** — frames are AES-CTR ciphertext;
//! * **integrity** — 16-byte encrypt-then-MAC tags (HMAC, PMAC or
//!   GHASH, like any other Shield engine);
//! * **freshness/ordering** — the tag binds a monotonically increasing
//!   sequence number; replayed, reordered, or dropped frames are all
//!   rejected (a drop desynchronizes the counter and surfaces as a
//!   failed tag on the next frame).
//!
//! The [`frame_cost`] helper gives the cycle cost for the timing model,
//! mirroring the memory path's `chunk_crypto_cost`.

use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, Sealed};
use shef_crypto::ctr::ChunkIv;
use shef_crypto::hkdf;
use shef_crypto::wire::{Reader, Writer};

use super::keys::DataEncryptionKey;
use super::timing::{chunk_crypto_cost, ChunkCost};
use crate::ShefError;

/// Direction of a stream frame, bound into every tag so host→device
/// traffic can never be reflected back as device→host traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamDirection {
    /// Data Owner (via the untrusted host) → accelerator.
    ToDevice,
    /// Accelerator → Data Owner.
    FromDevice,
}

impl StreamDirection {
    fn label(self) -> &'static str {
        match self {
            StreamDirection::ToDevice => "to-device",
            StreamDirection::FromDevice => "from-device",
        }
    }
}

/// A sealed stream frame as it crosses the untrusted host and Shell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Sequence number claimed by the sender (authenticated: the tag
    /// binds it, so tampering here is detected, not trusted).
    pub seq: u64,
    /// The sealed payload.
    pub sealed: Sealed,
}

impl StreamFrame {
    /// Wire encoding forwarded by the host program.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.seq);
        w.put_bytes(&self.sealed.to_bytes());
        w.finish()
    }

    /// Parses the wire encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Malformed`] on truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShefError> {
        let mut r = Reader::new(bytes);
        let seq = r.get_u64()?;
        let sealed_bytes = r.get_bytes()?;
        r.finish()?;
        let sealed = Sealed::from_bytes(sealed_bytes)
            .map_err(|e| ShefError::Malformed(format!("bad stream frame: {e}")))?;
        Ok(StreamFrame { seq, sealed })
    }
}

/// AD string binding a frame to the channel, direction and sequence.
fn frame_ad(channel: &str, direction: StreamDirection, seq: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.stream.frame.v1");
    w.put_str(channel);
    w.put_str(direction.label());
    w.put_u64(seq);
    w.finish()
}

/// IV for a frame: direction bit ‖ sequence (never reused — sequence
/// numbers are strictly increasing and directions are domain-split).
fn frame_iv(direction: StreamDirection, seq: u64) -> ChunkIv {
    let mut iv = [0u8; 12];
    iv[0] = match direction {
        StreamDirection::ToDevice => 0x0d,
        StreamDirection::FromDevice => 0xd0,
    };
    iv[4..].copy_from_slice(&seq.to_be_bytes());
    ChunkIv(iv)
}

/// One endpoint of a protected stream channel. The Shield instantiates
/// one with [`StreamEndpoint::shield_side`]; the Data Owner's client
/// holds the mirror from [`StreamEndpoint::client_side`].
pub struct StreamEndpoint {
    channel: String,
    key: AuthEncKey,
    send_dir: StreamDirection,
    recv_dir: StreamDirection,
    next_send: u64,
    next_recv: u64,
    frames_sent: u64,
    frames_received: u64,
}

impl core::fmt::Debug for StreamEndpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamEndpoint")
            .field("channel", &self.channel)
            .field("sent", &self.frames_sent)
            .field("received", &self.frames_received)
            .finish_non_exhaustive()
    }
}

/// Derives the channel key shared by both endpoints.
fn channel_key(dek: &DataEncryptionKey, channel: &str, mac: MacAlgorithm) -> AuthEncKey {
    let info = format!("shef.stream.key.{channel}");
    let master = hkdf::derive_key32(b"shef.shield", &dek.to_bytes(), info.as_bytes());
    AuthEncKey::from_bytes(master, mac)
}

impl StreamEndpoint {
    /// The accelerator-facing endpoint inside the Shield. `channel`
    /// names the stream port (part of the key derivation, so two ports
    /// never share keys).
    #[must_use]
    pub fn shield_side(dek: &DataEncryptionKey, channel: &str, mac: MacAlgorithm) -> Self {
        StreamEndpoint {
            channel: channel.to_owned(),
            key: channel_key(dek, channel, mac),
            send_dir: StreamDirection::FromDevice,
            recv_dir: StreamDirection::ToDevice,
            next_send: 0,
            next_recv: 0,
            frames_sent: 0,
            frames_received: 0,
        }
    }

    /// The Data Owner's endpoint (runs off-cloud; talks through the
    /// untrusted host program).
    #[must_use]
    pub fn client_side(dek: &DataEncryptionKey, channel: &str, mac: MacAlgorithm) -> Self {
        StreamEndpoint {
            channel: channel.to_owned(),
            key: channel_key(dek, channel, mac),
            send_dir: StreamDirection::ToDevice,
            recv_dir: StreamDirection::FromDevice,
            next_send: 0,
            next_recv: 0,
            frames_sent: 0,
            frames_received: 0,
        }
    }

    /// Frames sent so far.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames accepted so far.
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Seals `payload` as the next frame in this endpoint's send
    /// direction.
    pub fn send(&mut self, payload: &[u8]) -> StreamFrame {
        let seq = self.next_send;
        self.next_send += 1;
        self.frames_sent += 1;
        let sealed = self.key.seal_with_iv(
            payload,
            &frame_ad(&self.channel, self.send_dir, seq),
            frame_iv(self.send_dir, seq),
        );
        StreamFrame { seq, sealed }
    }

    /// Verifies and opens the next expected frame.
    ///
    /// # Errors
    ///
    /// * [`ShefError::ProtocolViolation`] if the claimed sequence number
    ///   is not the next expected one (reorder, replay, or drop).
    /// * [`ShefError::IntegrityViolation`] if the tag fails (tampering,
    ///   or a forged sequence number).
    pub fn recv(&mut self, frame: &StreamFrame) -> Result<Vec<u8>, ShefError> {
        if frame.seq != self.next_recv {
            return Err(ShefError::ProtocolViolation(format!(
                "stream '{}': expected frame {}, got {} (reorder/replay/drop)",
                self.channel, self.next_recv, frame.seq
            )));
        }
        let payload = self
            .key
            .open(
                &frame.sealed,
                &frame_ad(&self.channel, self.recv_dir, frame.seq),
            )
            .map_err(|_| {
                ShefError::IntegrityViolation(format!(
                    "stream '{}': frame {} failed authentication",
                    self.channel, frame.seq
                ))
            })?;
        self.next_recv += 1;
        self.frames_received += 1;
        Ok(payload)
    }
}

/// Cycle cost of sealing or opening one `len`-byte frame with the given
/// engine complement — identical engine hardware to the memory path,
/// so the same cost model applies.
#[must_use]
pub fn frame_cost(engine_set: &super::config::EngineSetConfig, len: usize) -> ChunkCost {
    chunk_crypto_cost(engine_set, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (StreamEndpoint, StreamEndpoint) {
        let dek = DataEncryptionKey::from_bytes([0x21u8; 32]);
        (
            StreamEndpoint::client_side(&dek, "pcie0", MacAlgorithm::HmacSha256),
            StreamEndpoint::shield_side(&dek, "pcie0", MacAlgorithm::HmacSha256),
        )
    }

    #[test]
    fn bidirectional_round_trip() {
        let (mut client, mut shield) = pair();
        let f1 = client.send(b"command: scan table");
        assert_eq!(shield.recv(&f1).unwrap(), b"command: scan table");
        let f2 = shield.send(b"result: 42 rows");
        assert_eq!(client.recv(&f2).unwrap(), b"result: 42 rows");
        assert_eq!(client.frames_sent(), 1);
        assert_eq!(client.frames_received(), 1);
    }

    #[test]
    fn long_exchange_keeps_order() {
        let (mut client, mut shield) = pair();
        for i in 0..200u32 {
            let frame = client.send(&i.to_le_bytes());
            assert_eq!(shield.recv(&frame).unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn replayed_frame_rejected() {
        let (mut client, mut shield) = pair();
        let frame = client.send(b"debit $100");
        shield.recv(&frame).unwrap();
        let err = shield.recv(&frame).unwrap_err();
        assert!(matches!(err, ShefError::ProtocolViolation(_)));
    }

    #[test]
    fn reordered_frames_rejected() {
        let (mut client, mut shield) = pair();
        let f0 = client.send(b"first");
        let f1 = client.send(b"second");
        let err = shield.recv(&f1).unwrap_err();
        assert!(matches!(err, ShefError::ProtocolViolation(_)));
        // The in-order frame still works afterwards.
        assert_eq!(shield.recv(&f0).unwrap(), b"first");
    }

    #[test]
    fn dropped_frame_detected() {
        let (mut client, mut shield) = pair();
        let _lost = client.send(b"frame 0 (dropped by malicious host)");
        let f1 = client.send(b"frame 1");
        assert!(shield.recv(&f1).is_err());
    }

    #[test]
    fn forged_sequence_number_fails_tag() {
        // An adversary rewriting the (plaintext) seq field to match the
        // receiver's expectation still fails: the tag binds the true seq.
        let (mut client, mut shield) = pair();
        let f0 = client.send(b"first");
        shield.recv(&f0).unwrap();
        let mut f1 = client.send(b"second");
        // Host tries to replay the first sealed payload as frame 1.
        f1.sealed = f0.sealed.clone();
        let err = shield.recv(&f1).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (mut client, mut shield) = pair();
        let mut frame = client.send(b"sensitive");
        frame.sealed.ciphertext[0] ^= 1;
        assert!(matches!(
            shield.recv(&frame).unwrap_err(),
            ShefError::IntegrityViolation(_)
        ));
    }

    #[test]
    fn reflection_across_directions_rejected() {
        // Bouncing a client frame back to the client must fail: the tag
        // binds the direction.
        let (mut client, _shield) = pair();
        let frame = client.send(b"to device");
        assert!(client.recv(&frame).is_err());
    }

    #[test]
    fn channels_are_isolated() {
        let dek = DataEncryptionKey::from_bytes([0x21u8; 32]);
        let mut client_a = StreamEndpoint::client_side(&dek, "pcie0", MacAlgorithm::HmacSha256);
        let mut shield_b = StreamEndpoint::shield_side(&dek, "pcie1", MacAlgorithm::HmacSha256);
        let frame = client_a.send(b"for channel 0");
        assert!(
            shield_b.recv(&frame).is_err(),
            "cross-channel frames must fail"
        );
    }

    #[test]
    fn wire_format_round_trips() {
        let (mut client, mut shield) = pair();
        let frame = client.send(b"over the wire");
        let parsed = StreamFrame::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(shield.recv(&parsed).unwrap(), b"over the wire");
        assert!(StreamFrame::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // A frame whose sealed-bytes length field is forged to u64::MAX
        // must be rejected as malformed without any allocation — the
        // same unbounded-allocation pattern class fixed in
        // `ShieldConfig::from_bytes`.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // sealed length
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            StreamFrame::from_bytes(&bytes),
            Err(ShefError::Malformed(_))
        ));
    }

    #[test]
    fn overlong_length_prefix_rejected() {
        // A length that fits the total buffer but exceeds the bytes
        // remaining after the seq field must also fail.
        let (mut client, _shield) = pair();
        let good = client.send(b"frame").to_bytes();
        let mut bytes = good.clone();
        // Inflate the sealed-length field past the remaining payload.
        bytes[8..16].copy_from_slice(&(good.len() as u64).to_le_bytes());
        assert!(matches!(
            StreamFrame::from_bytes(&bytes),
            Err(ShefError::Malformed(_))
        ));
        // Truncated sealed payload inside a well-formed envelope fails
        // in Sealed::from_bytes, surfaced as Malformed.
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_bytes(&[0u8; 4]); // too short for IV + tag
        assert!(matches!(
            StreamFrame::from_bytes(&w.finish()),
            Err(ShefError::Malformed(_))
        ));
    }

    #[test]
    fn works_with_all_mac_engines() {
        for mac in [
            MacAlgorithm::HmacSha256,
            MacAlgorithm::PmacAes,
            MacAlgorithm::AesGcm,
        ] {
            let dek = DataEncryptionKey::from_bytes([0x44u8; 32]);
            let mut client = StreamEndpoint::client_side(&dek, "ch", mac);
            let mut shield = StreamEndpoint::shield_side(&dek, "ch", mac);
            let frame = client.send(b"payload");
            assert_eq!(shield.recv(&frame).unwrap(), b"payload");
        }
    }

    #[test]
    fn frame_cost_matches_memory_path_model() {
        let es = super::super::config::EngineSetConfig::default();
        assert_eq!(frame_cost(&es, 512), chunk_crypto_cost(&es, 512));
    }
}
