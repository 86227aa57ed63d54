//! Golden bytes of the KV and transaction wire formats: one frame per
//! `KvOp`/`KvResp` and `TxnOp`/`TxnResp` variant, exactly as a client
//! sends it or a service answers. Host-side clients and replayed request
//! streams outlive any one build, so these bytes may only change together
//! with a protocol change.
//!
//! Each entry is checked both ways: the typed value must encode to the
//! pinned bytes, and the pinned bytes must decode to the typed value (and
//! no strict prefix of them may decode at all).

use std::fmt::Debug;

use treesls_apps::wire::{make_key, numeric_key, KvOp, KvOpRef, KvResp};
use treesls_txn::wire::{ScanRow, TxnOp, TxnResp, FLAG_RETRY};
use treesls_txn::KEY_LEN;

/// `(name, hex of KvOp::encode)`.
const KV_OPS: &[(&str, &str)] = &[
    ("get", "01616c7068610000000000000000000000"),
    ("set", "02757365722a00000000000000000000000500000076616c7565"),
    ("set_empty", "026265746100000000000000000000000000000000"),
    ("del", "0367616d6d610000000000000000000000"),
];

/// `(name, hex of KvResp::encode)`.
const KV_RESPS: &[(&str, &str)] = &[
    ("ok", "00"),
    ("ok_value", "010500000068656c6c6f"),
    ("ok_empty_value", "0100000000"),
    ("miss", "02"),
    ("error", "03"),
];

/// `(name, hex of TxnOp::encode)`.
const TXN_OPS: &[(&str, &str)] = &[
    ("begin", "08070000000000000000"),
    ("begin_retry", "08030000000000010001"),
    ("read", "09000000000000000001010101010101010101010101010101"),
    (
        "write",
        "0a07000000000000000101010101010101010101010101010102020202020202020202020202020202030001\
         0203",
    ),
    (
        "write_delete",
        "0a07000000000000000101010101010101010101010101010100000000000000000000000000000000ffff",
    ),
    (
        "scan_primary",
        "0b07000000000000000000000000000000000000000000000000090909090909090909090909090909091900",
    ),
    (
        "scan_index",
        "0b00000000000000000103030303030303030303030303030303040404040404040404040404040404043412",
    ),
    ("commit", "0c0700000000000000"),
    ("abort", "0d0800000000000000"),
    ("begin_read_retry", "0e09000000000000000105050505050505050505050505050505"),
    (
        "write_commit",
        "0f090000000000000005050505050505050505050505050505060606060606060606060606060606060000",
    ),
    (
        "write_commit_delete",
        "0f09000000000000000505050505050505050505050505050506060606060606060606060606060606ffff",
    ),
];

/// `(name, hex of TxnResp::encode)`.
const TXN_RESPS: &[(&str, &str)] = &[
    ("ok", "100807060504030201"),
    ("value", "110200aabb"),
    ("miss", "12"),
    ("conflict", "13"),
    (
        "scan_rows",
        "1402000101010101010101010101010101010100000000000000000000000000000000010005020202020202\
         02020202020202020202030303030303030303030303030303030000",
    ),
    ("scan_empty", "140000"),
    ("unknown_txn", "15"),
    ("error", "16"),
];

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Checks `typed` against `golden` entry by entry, in both directions, and
/// that every golden entry has a typed counterpart.
fn check<T: PartialEq + Debug>(
    golden: &[(&str, &str)],
    typed: Vec<(&str, T)>,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    assert_eq!(typed.len(), golden.len(), "one typed value per golden entry");
    for (name, value) in typed {
        let (_, pinned) = golden.iter().find(|(n, _)| *n == name).expect("golden entry");
        let bytes = unhex(pinned);
        let wire = encode(&value);
        assert_eq!(wire, bytes, "{name}: encodes to {}", hex(&wire));
        assert_eq!(decode(&bytes), Some(value), "{name}: pinned bytes decode");
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), None, "{name}: {cut}-byte prefix decoded");
        }
    }
}

fn k(b: u8) -> [u8; KEY_LEN] {
    [b; KEY_LEN]
}

#[test]
fn kv_ops_match_the_pinned_bytes() {
    let typed = vec![
        ("get", KvOp::Get { key: make_key(b"alpha") }),
        ("set", KvOp::Set { key: numeric_key(42), value: b"value".to_vec() }),
        ("set_empty", KvOp::Set { key: make_key(b"beta"), value: vec![] }),
        ("del", KvOp::Del { key: make_key(b"gamma") }),
    ];
    check(KV_OPS, typed, KvOp::encode, KvOp::decode);
    // The borrowed decoder reads the same bytes as the owned one.
    for (name, pinned) in KV_OPS {
        let bytes = unhex(pinned);
        let view = KvOpRef::decode(&bytes).unwrap_or_else(|| panic!("{name}: borrowed decode"));
        assert_eq!(Some(view.to_owned()), KvOp::decode(&bytes), "{name}");
    }
}

#[test]
fn kv_resps_match_the_pinned_bytes() {
    let typed = vec![
        ("ok", KvResp::Ok(None)),
        ("ok_value", KvResp::Ok(Some(b"hello".to_vec()))),
        ("ok_empty_value", KvResp::Ok(Some(vec![]))),
        ("miss", KvResp::Miss),
        ("error", KvResp::Error),
    ];
    check(KV_RESPS, typed, KvResp::encode, KvResp::decode);
}

#[test]
fn txn_ops_match_the_pinned_bytes() {
    let typed = vec![
        ("begin", TxnOp::Begin { txn: 7, flags: 0 }),
        ("begin_retry", TxnOp::Begin { txn: 1 << 48 | 3, flags: FLAG_RETRY }),
        ("read", TxnOp::Read { txn: 0, key: k(1) }),
        ("write", TxnOp::Write { txn: 7, key: k(1), tag: k(2), val: Some(vec![1, 2, 3]) }),
        ("write_delete", TxnOp::Write { txn: 7, key: k(1), tag: k(0), val: None }),
        ("scan_primary", TxnOp::Scan { txn: 7, space: 0, lo: k(0), hi: k(9), limit: 25 }),
        ("scan_index", TxnOp::Scan { txn: 0, space: 1, lo: k(3), hi: k(4), limit: 0x1234 }),
        ("commit", TxnOp::Commit { txn: 7 }),
        ("abort", TxnOp::Abort { txn: 8 }),
        ("begin_read_retry", TxnOp::BeginRead { txn: 9, flags: FLAG_RETRY, key: k(5) }),
        ("write_commit", TxnOp::WriteCommit { txn: 9, key: k(5), tag: k(6), val: Some(vec![]) }),
        ("write_commit_delete", TxnOp::WriteCommit { txn: 9, key: k(5), tag: k(6), val: None }),
    ];
    check(TXN_OPS, typed, TxnOp::encode, TxnOp::decode);
}

#[test]
fn txn_resps_match_the_pinned_bytes() {
    let rows = vec![
        ScanRow { major: k(1), minor: k(0), val: vec![5] },
        ScanRow { major: k(2), minor: k(3), val: vec![] },
    ];
    let typed = vec![
        ("ok", TxnResp::Ok { seq: 0x0102_0304_0506_0708 }),
        ("value", TxnResp::Value { val: vec![0xaa, 0xbb] }),
        ("miss", TxnResp::Miss),
        ("conflict", TxnResp::Conflict),
        ("scan_rows", TxnResp::Scan { rows }),
        ("scan_empty", TxnResp::Scan { rows: vec![] }),
        ("unknown_txn", TxnResp::UnknownTxn),
        ("error", TxnResp::Error),
    ];
    check(TXN_RESPS, typed, TxnResp::encode, TxnResp::decode);
}
