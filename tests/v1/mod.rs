//! The one source of v1 (`"SBR1"`) frame bytes for the read-compat tests.
//!
//! No writer in the workspace emits v1; `codec::decode_any` still reads
//! it. A v1 frame is a v2 data frame without the kind, epoch and
//! snapshot-count fields and without the CRC trailer, so the bytes are cut
//! out of one. `tests/wire_compat.rs` pins the result against hand-spelled
//! v1 golden bytes.

use sbr_repro::core::codec;
use sbr_repro::core::transmission::{Frame, Transmission};

/// `tx` as v1 bytes: `MAGIC ∥ v2[9..29] ∥ v2[33..len−4]` of its v2 data
/// frame (seq, n, m, w, then nu, ni and the payload).
pub fn frame(tx: &Transmission) -> Vec<u8> {
    let v2 = codec::encode_v2(&Frame::data(0, tx.clone()));
    let mut v1 = codec::MAGIC.to_le_bytes().to_vec();
    v1.extend_from_slice(&v2[9..29]);
    v1.extend_from_slice(&v2[33..v2.len() - 4]);
    v1
}
