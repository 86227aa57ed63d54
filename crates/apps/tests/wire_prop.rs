//! Property-based tests for the KV wire protocol.
//!
//! Three invariants over random payloads: encode → decode is the identity
//! for every operation and response, no strict prefix of a valid
//! encoding decodes successfully, and neither does a valid encoding with
//! bytes appended (a truncated or overlong buffer must be rejected, never
//! misparsed — ring slots carry explicit lengths, but a server must
//! survive a client that lies about them).

use proptest::prelude::*;

use treesls_apps::wire::{KvOp, KvOpRef, KvResp, KEY_LEN};
use treesls_txn::wire::{ScanRow, TxnOp, TxnResp};
use treesls_txn::VAL_CAP;

fn key_strategy() -> impl Strategy<Value = [u8; KEY_LEN]> {
    proptest::collection::vec(any::<u8>(), KEY_LEN..KEY_LEN + 1).prop_map(|v| {
        let mut k = [0u8; KEY_LEN];
        k.copy_from_slice(&v);
        k
    })
}

fn op_strategy() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        key_strategy().prop_map(|key| KvOp::Get { key }),
        (key_strategy(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(key, value)| KvOp::Set { key, value }),
        key_strategy().prop_map(|key| KvOp::Del { key }),
    ]
}

fn resp_strategy() -> impl Strategy<Value = KvResp> {
    prop_oneof![
        Just(KvResp::Ok(None)),
        proptest::collection::vec(any::<u8>(), 0..200)
            .prop_map(|v| KvResp::Ok(Some(v))),
        Just(KvResp::Miss),
        Just(KvResp::Error),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn op_encode_decode_roundtrips(op in op_strategy()) {
        let wire = op.encode();
        prop_assert_eq!(KvOp::decode(&wire), Some(op));
    }

    #[test]
    fn resp_encode_decode_roundtrips(resp in resp_strategy()) {
        let wire = resp.encode();
        prop_assert_eq!(KvResp::decode(&wire), Some(resp));
    }

    #[test]
    fn truncated_op_is_rejected(op in op_strategy(), cut in any::<u16>()) {
        let wire = op.encode();
        // Every strict prefix, seeded by a random cut (plus the empty
        // buffer and the one-byte-short case explicitly).
        let cut = (cut as usize) % wire.len();
        for len in [0, cut, wire.len() - 1] {
            prop_assert_eq!(
                KvOp::decode(&wire[..len]),
                None,
                "prefix of {} bytes (of {}) parsed",
                len,
                wire.len()
            );
        }
    }

    #[test]
    fn truncated_resp_is_rejected(resp in resp_strategy(), cut in any::<u16>()) {
        let wire = resp.encode();
        let cut = (cut as usize) % wire.len();
        for len in [0, cut, wire.len() - 1] {
            prop_assert_eq!(
                KvResp::decode(&wire[..len]),
                None,
                "prefix of {} bytes (of {}) parsed",
                len,
                wire.len()
            );
        }
    }

    #[test]
    fn op_with_trailing_garbage_is_rejected(
        op in op_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut wire = op.encode();
        wire.extend_from_slice(&junk);
        prop_assert_eq!(KvOp::decode(&wire), None);
        prop_assert_eq!(KvOpRef::decode(&wire), None);
    }

    #[test]
    fn resp_with_trailing_garbage_is_rejected(
        resp in resp_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut wire = resp.encode();
        wire.extend_from_slice(&junk);
        prop_assert_eq!(KvResp::decode(&wire), None);
    }

    #[test]
    fn oversized_length_field_is_rejected(key in key_strategy(), claim in 1u32..1024) {
        // A SET whose length field claims more bytes than the buffer
        // holds must be rejected, whatever the claimed length.
        let mut wire = KvOp::Set { key, value: vec![] }.encode();
        let len_off = wire.len() - 4;
        wire[len_off..].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(KvOp::decode(&wire), None);
    }
}

// ---- transaction verbs (treesls-txn) ------------------------------------

fn txn_val_strategy() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(any::<u8>(), 0..VAL_CAP + 1).prop_map(Some),
    ]
}

fn txn_op_strategy() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        (any::<u64>(), any::<u8>()).prop_map(|(txn, flags)| TxnOp::Begin { txn, flags }),
        (any::<u64>(), key_strategy()).prop_map(|(txn, key)| TxnOp::Read { txn, key }),
        (any::<u64>(), key_strategy(), key_strategy(), txn_val_strategy())
            .prop_map(|(txn, key, tag, val)| TxnOp::Write { txn, key, tag, val }),
        (any::<u64>(), 0u8..2, key_strategy(), key_strategy(), any::<u16>())
            .prop_map(|(txn, space, lo, hi, limit)| TxnOp::Scan { txn, space, lo, hi, limit }),
        any::<u64>().prop_map(|txn| TxnOp::Commit { txn }),
        any::<u64>().prop_map(|txn| TxnOp::Abort { txn }),
        (any::<u64>(), any::<u8>(), key_strategy())
            .prop_map(|(txn, flags, key)| TxnOp::BeginRead { txn, flags, key }),
        (any::<u64>(), key_strategy(), key_strategy(), txn_val_strategy())
            .prop_map(|(txn, key, tag, val)| TxnOp::WriteCommit { txn, key, tag, val }),
    ]
}

fn txn_resp_strategy() -> impl Strategy<Value = TxnResp> {
    let row = (key_strategy(), key_strategy(), proptest::collection::vec(any::<u8>(), 0..VAL_CAP + 1))
        .prop_map(|(major, minor, val)| ScanRow { major, minor, val });
    prop_oneof![
        any::<u64>().prop_map(|seq| TxnResp::Ok { seq }),
        proptest::collection::vec(any::<u8>(), 0..VAL_CAP + 1).prop_map(|val| TxnResp::Value { val }),
        Just(TxnResp::Miss),
        Just(TxnResp::Conflict),
        proptest::collection::vec(row, 0..8).prop_map(|rows| TxnResp::Scan { rows }),
        Just(TxnResp::UnknownTxn),
        Just(TxnResp::Error),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn txn_op_encode_decode_roundtrips(op in txn_op_strategy()) {
        let wire = op.encode();
        prop_assert_eq!(TxnOp::decode(&wire), Some(op));
    }

    #[test]
    fn txn_resp_encode_decode_roundtrips(resp in txn_resp_strategy()) {
        let wire = resp.encode();
        prop_assert_eq!(TxnResp::decode(&wire), Some(resp));
    }

    #[test]
    fn truncated_txn_op_is_rejected(op in txn_op_strategy(), cut in any::<u16>()) {
        let wire = op.encode();
        let cut = (cut as usize) % wire.len();
        for len in [0, cut, wire.len() - 1] {
            prop_assert_eq!(
                TxnOp::decode(&wire[..len]),
                None,
                "prefix of {} bytes (of {}) parsed",
                len,
                wire.len()
            );
        }
    }

    #[test]
    fn truncated_txn_resp_is_rejected(resp in txn_resp_strategy(), cut in any::<u16>()) {
        let wire = resp.encode();
        let cut = (cut as usize) % wire.len();
        for len in [0, cut, wire.len() - 1] {
            prop_assert_eq!(
                TxnResp::decode(&wire[..len]),
                None,
                "prefix of {} bytes (of {}) parsed",
                len,
                wire.len()
            );
        }
    }

    #[test]
    fn txn_op_with_trailing_garbage_is_rejected(op in txn_op_strategy(), junk in any::<u8>()) {
        let mut wire = op.encode();
        wire.push(junk);
        prop_assert_eq!(TxnOp::decode(&wire), None);
    }

    #[test]
    fn txn_oversized_value_claim_is_rejected(
        key in key_strategy(),
        tag in key_strategy(),
        claim in (VAL_CAP as u16 + 1)..0xfffe,
    ) {
        // A write whose vlen claims more than VAL_CAP (and is not the
        // delete sentinel) must be rejected.
        let mut wire = TxnOp::Write { txn: 1, key, tag, val: Some(vec![]) }.encode();
        let at = wire.len() - 2;
        wire[at..].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(TxnOp::decode(&wire), None);
    }

    #[test]
    fn random_bytes_never_panic_txn_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Whatever arrives, the decoders return (no panic, no UB).
        let _ = TxnOp::decode(&bytes);
        let _ = TxnResp::decode(&bytes);
    }
}
