//! Journal record format: the byte codec of a [`Settlement`].
//!
//! The journal stores the same settlement value the audit ring and the
//! event bus consume (`starj_telemetry::Settlement`); this module only
//! says how it looks on disk. Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! with a fixed little-endian payload layout:
//!
//! ```text
//! kind        u8    reserve=1 / commit=2 / refund=3 / refusal=4
//! request_id  u64   wire request id (0 when not wire-originated)
//! query_hash  u64   canonical-query hash (see starj-service)
//! epsilon     u64   f64 bit pattern (dyadic-exact)
//! delta       u64   f64 bit pattern
//! data_ver    u64   schema/data version the request ran against
//! tenant_len  u16   UTF-8 byte length of the tenant id
//! tenant      …     tenant id bytes (at most [`MAX_TENANT_BYTES`])
//! ```
//!
//! ε and δ travel as raw `f64` bit patterns so recovery replay reproduces
//! the in-memory ledger **bit-for-bit**: the service quantizes ε to a
//! dyadic grid, making the replayed sum exact and order-independent.

use crate::crc::crc32;
use crate::wal::WalError;
use starj_telemetry::{Settlement, SettlementKind};
// The journal-era names, still spelled by the benchmark harness.
pub use starj_telemetry::{Settlement as JournalRecord, SettlementKind as RecordKind};

/// Fixed-size prefix of the payload (everything before the tenant bytes).
pub const PAYLOAD_HEADER: usize = 1 + 8 + 8 + 8 + 8 + 8 + 2;

/// Upper bound on one encoded payload; longer records are treated as
/// corruption by recovery (a torn length field would otherwise ask us to
/// allocate gigabytes), so the encoder refuses to write one.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// The longest tenant id a record can carry.
pub const MAX_TENANT_BYTES: usize = MAX_PAYLOAD - PAYLOAD_HEADER;

fn kind_code(kind: SettlementKind) -> u8 {
    match kind {
        SettlementKind::Reserve => 1,
        SettlementKind::Commit => 2,
        SettlementKind::Refund => 3,
        SettlementKind::Refusal => 4,
    }
}

/// Serializes the full frame `[len][crc][payload]`. A tenant id over
/// [`MAX_TENANT_BYTES`] is refused with [`WalError::Oversize`]: recovery
/// would read the frame as damage and drop every record after it.
pub fn encode_frame(s: &Settlement) -> Result<Vec<u8>, WalError> {
    let tenant = s.tenant.as_bytes();
    if tenant.len() > MAX_TENANT_BYTES {
        return Err(WalError::Oversize { bytes: PAYLOAD_HEADER + tenant.len() });
    }
    let mut frame = Vec::with_capacity(8 + PAYLOAD_HEADER + tenant.len());
    frame.extend_from_slice(&((PAYLOAD_HEADER + tenant.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 4]); // the CRC, filled in below
    frame.push(kind_code(s.kind));
    for word in [s.request_id, s.query_hash, s.epsilon.to_bits(), s.delta.to_bits(), s.data_version]
    {
        frame.extend_from_slice(&word.to_le_bytes());
    }
    frame.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
    frame.extend_from_slice(tenant);
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Decodes a payload produced by [`encode_frame`]. Returns `None` on any
/// structural violation (recovery treats that the same as a CRC mismatch).
pub fn decode_payload(payload: &[u8]) -> Option<Settlement> {
    if payload.len() < PAYLOAD_HEADER {
        return None;
    }
    let kind = match payload[0] {
        1 => SettlementKind::Reserve,
        2 => SettlementKind::Commit,
        3 => SettlementKind::Refund,
        4 => SettlementKind::Refusal,
        _ => return None,
    };
    let u64_at = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let tenant_len = u16::from_le_bytes([payload[41], payload[42]]) as usize;
    if payload.len() != PAYLOAD_HEADER + tenant_len {
        return None;
    }
    Some(Settlement {
        kind,
        tenant: std::str::from_utf8(&payload[PAYLOAD_HEADER..]).ok()?.to_string(),
        query_hash: u64_at(9),
        epsilon: f64::from_bits(u64_at(17)),
        delta: f64::from_bits(u64_at(25)),
        data_version: u64_at(33),
        request_id: u64_at(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: RecordKind) -> JournalRecord {
        JournalRecord {
            kind,
            tenant: "acme-analytics".into(),
            query_hash: 0xDEAD_BEEF_CAFE_F00D,
            epsilon: 0.375, // dyadic
            delta: 1e-9,
            data_version: 7,
            request_id: 42,
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for kind in
            [RecordKind::Reserve, RecordKind::Commit, RecordKind::Refund, RecordKind::Refusal]
        {
            let rec = sample(kind);
            let frame = encode_frame(&rec).unwrap();
            let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = &frame[8..];
            assert_eq!(payload.len(), len);
            assert_eq!(crc32(payload), crc);
            assert_eq!(decode_payload(payload), Some(rec));
        }
    }

    #[test]
    fn epsilon_bits_survive_exactly() {
        // A non-dyadic ε still round-trips bit-for-bit: we journal the
        // pattern, not a decimal rendering.
        let mut rec = sample(RecordKind::Commit);
        rec.epsilon = 0.1f64;
        rec.delta = f64::MIN_POSITIVE;
        let frame = encode_frame(&rec).unwrap();
        let back = decode_payload(&frame[8..]).unwrap();
        assert_eq!(back.epsilon.to_bits(), rec.epsilon.to_bits());
        assert_eq!(back.delta.to_bits(), rec.delta.to_bits());
    }

    /// The on-disk bytes, pinned: one frame per kind as `BudgetWal::append`
    /// leaves it in a segment. Journals written by an older build must
    /// keep recovering, so these never change.
    #[test]
    fn journal_frames_match_the_golden_bytes() {
        use crate::tempdir::TempDir;
        use crate::wal::{BudgetWal, SyncPolicy, WalConfig, SEGMENT_MAGIC};

        // [len][crc][kind][request_id][query_hash][ε bits][δ bits][data_version][tenant_len][tenant]
        const GOLDEN: [&str; 4] = [
            "390000005f9106fb012a000000000000000df0fecaefbeadde000000000000d83f95d626e80b2e113e07000000000000000e0061636d652d616e616c7974696373",
            "39000000f3e7f9d2022a000000000000000df0fecaefbeadde000000000000d83f95d626e80b2e113e07000000000000000e0061636d652d616e616c7974696373",
            "39000000973553ca032a000000000000000df0fecaefbeadde000000000000d83f95d626e80b2e113e07000000000000000e0061636d652d616e616c7974696373",
            "39000000ab0a0781042a000000000000000df0fecaefbeadde000000000000d83f95d626e80b2e113e07000000000000000e0061636d652d616e616c7974696373",
        ];
        let dir = TempDir::new("record-golden").unwrap();
        let config = WalConfig { sync: SyncPolicy::Never, ..WalConfig::at(dir.path()) };
        let kinds =
            [RecordKind::Reserve, RecordKind::Commit, RecordKind::Refund, RecordKind::Refusal];
        {
            let (wal, _) = BudgetWal::open(config.clone(), None).unwrap();
            for kind in kinds {
                wal.append(&sample(kind)).unwrap();
            }
        }
        let bytes = std::fs::read(dir.path().join("wal-00000000.seg")).unwrap();
        assert_eq!(&bytes[..8], SEGMENT_MAGIC);
        let mut frames = Vec::new();
        let mut off = 8;
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let hex: String =
                bytes[off..off + 8 + len].iter().map(|b| format!("{b:02x}")).collect();
            frames.push(hex);
            off += 8 + len;
        }
        assert_eq!(frames, GOLDEN, "frames:\n{frames:#?}");
        let (_, recovery) = BudgetWal::open(config, None).unwrap();
        assert_eq!((recovery.records, recovery.commits), (4, 1));
        assert_eq!(recovery.tenants["acme-analytics"].commits, 1);
    }

    #[test]
    fn truncated_or_mangled_payloads_decode_to_none() {
        let rec = sample(RecordKind::Commit);
        let payload = encode_frame(&rec).unwrap()[8..].to_vec();
        for cut in 0..payload.len() {
            assert_eq!(decode_payload(&payload[..cut]), None, "cut at {cut}");
        }
        let mut bad_kind = payload.clone();
        bad_kind[0] = 9;
        assert_eq!(decode_payload(&bad_kind), None);
        let mut bad_len = payload.clone();
        bad_len[41] = 0xFF; // tenant_len no longer matches the buffer
        assert_eq!(decode_payload(&bad_len), None);
    }

    #[test]
    fn the_longest_tenant_id_fits_and_one_byte_more_is_refused() {
        let mut rec = sample(RecordKind::Commit);
        rec.tenant = "t".repeat(MAX_TENANT_BYTES);
        let frame = encode_frame(&rec).unwrap();
        assert_eq!(frame.len(), 8 + MAX_PAYLOAD);
        assert_eq!(decode_payload(&frame[8..]), Some(rec.clone()));
        rec.tenant.push('t');
        assert_eq!(encode_frame(&rec), Err(WalError::Oversize { bytes: MAX_PAYLOAD + 1 }));
    }
}
