//! Golden bytes of the replication wire format: one `Frame::Record` per
//! record variant (and every thread state), exactly as the primary ships
//! it. A replica of an older build must keep decoding what a newer
//! primary sends, so these bytes may only change together with a format
//! version bump.
//!
//! The first two tests speak only bytes — `Frame::decode` and
//! `Frame::encode` — so they hold whatever Rust types carry a record in
//! memory; the third builds the same records as typed values.

use treesls_repl::{Frame, WireError};

/// `(name, hex of Frame::Record { oroot: 99, .. }.encode())`.
const GOLDEN: &[(&str, &str)] = &[
    (
        "cap_group",
        "0263000000000000000104000000726f6f740300000001010000000000000007000000000109000000030000\
         0001000000",
    ),
    (
        "thread_runnable",
        "0263000000000000000200000000000000000101010101010101020202020202020203030303030303030404\
         040404040404050505050505050506060606060606060707070707070707080808080808080809090909090909\
         090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f\
         0f0f0f0f0f030000000000000000090000006b762d73657276657201000000000000000200000007000000",
    ),
    (
        "thread_blocked_notification",
        "0263000000000000000200000000000000000101010101010101020202020202020203030303030303030404\
         040404040404050505050505050506060606060606060707070707070707080808080808080809090909090909\
         090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f\
         0f0f0f0f0f0300000000000000010500000000000000090000006b762d7365727665720100000000000000020000\
         0007000000",
    ),
    (
        "thread_blocked_ipc_recv",
        "0263000000000000000200000000000000000101010101010101020202020202020203030303030303030404\
         040404040404050505050505050506060606060606060707070707070707080808080808080809090909090909\
         090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f\
         0f0f0f0f0f0300000000000000020600000000000000090000006b762d7365727665720100000000000000020000\
         0007000000",
    ),
    (
        "thread_blocked_ipc_reply",
        "0263000000000000000200000000000000000101010101010101020202020202020203030303030303030404\
         040404040404050505050505050506060606060606060707070707070707080808080808080809090909090909\
         090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f\
         0f0f0f0f0f0300000000000000030c00000000000000090000006b762d7365727665720100000000000000020000\
         0007000000",
    ),
    (
        "thread_exited",
        "0263000000000000000200000000000000000101010101010101020202020202020203030303030303030404\
         040404040404050505050505050506060606060606060707070707070707080808080808080809090909090909\
         090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f\
         0f0f0f0f0f030000000000000004090000006b762d73657276657201000000000000000200000007000000",
    ),
    (
        "vmspace",
        "0263000000000000000302000000001000000000000004000000000000000800000000000000020000000000\
         000003000000002000000000000001000000000000000900000000000000000000000000000001000000",
    ),
    (
        "pmo",
        "0263000000000000000410000000000000000105000000000000000200000000000000000000000300000000\
         000000aa00000007000000000000000200000000000000efbeadde",
    ),
    (
        "ipc_connection",
        "0263000000000000000501040000000000000001000000050000000000000003000000010203020000000600\
         0000000000000000000007000000000000000100000009",
    ),
    ("ipc_connection_idle", "02630000000000000005000000000000000000"),
    (
        "notification",
        "026300000000000000060200000000000000020000000a000000000000000b00000000000000",
    ),
    ("irq_notification", "02630000000000000007210000000100000000000000010000000c00000000000000"),
];

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn record_frames_decode_and_reencode_to_the_pinned_bytes() {
    for (name, hex) in GOLDEN {
        let bytes = unhex(hex);
        let frame = Frame::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(matches!(frame, Frame::Record { oroot: 99, .. }), "{name}: not a record frame");
        assert_eq!(frame.encode(), bytes, "{name}: re-encoding moved the bytes");
    }
}

#[test]
fn every_truncated_record_frame_is_an_error() {
    for (name, hex) in GOLDEN {
        let bytes = unhex(hex);
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "{name}: {cut}-byte prefix decoded");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing).err(), Some(WireError::Trailing), "{name}");
    }
}

/// The same records built as typed values: the encoder must produce the
/// pinned bytes, not merely re-encode what it decoded.
#[test]
fn typed_records_encode_to_the_pinned_bytes() {
    use treesls_kernel::cap::CapRights;
    use treesls_kernel::oroot::{BackupObject, BkCap, BkRegion, BkThreadState};
    use treesls_kernel::thread::ThreadContext;
    use treesls_kernel::types::OrootId;
    use treesls_repl::WireRecord;

    let id = OrootId::from_raw;
    let mut ctx = ThreadContext::new();
    for (i, r) in ctx.regs.iter_mut().enumerate() {
        *r = 0x0101_0101_0101_0101 * i as u64;
    }
    ctx.pc = 3;
    let thread = |state| BackupObject::Thread {
        ctx,
        state,
        program: "kv-server".into(),
        cap_group: id(1),
        vmspace: id(7 << 32 | 2),
    };
    let region = |base, npages, pmo, pmo_off, perm| BkRegion {
        base,
        npages,
        pmo: id(pmo),
        pmo_off,
        perm: CapRights(perm),
    };
    let objects = [
        (
            "cap_group",
            BackupObject::CapGroup {
                name: "root".into(),
                caps: vec![
                    Some(BkCap { oroot: id(1), rights: CapRights(0b111) }),
                    None,
                    Some(BkCap { oroot: id(3 << 32 | 9), rights: CapRights(0b1) }),
                ],
            },
        ),
        ("thread_runnable", thread(BkThreadState::Runnable)),
        ("thread_blocked_notification", thread(BkThreadState::BlockedNotification(id(5)))),
        ("thread_blocked_ipc_recv", thread(BkThreadState::BlockedIpcRecv(id(6)))),
        ("thread_blocked_ipc_reply", thread(BkThreadState::BlockedIpcReply(id(12)))),
        ("thread_exited", thread(BkThreadState::Exited)),
        (
            "vmspace",
            BackupObject::VmSpace {
                regions: vec![region(0x1000, 4, 8, 2, 3), region(0x2000, 1, 9, 0, 1)],
            },
        ),
        (
            "ipc_connection",
            BackupObject::IpcConnection {
                recv_waiter: Some(id(4)),
                queue: vec![(id(5), vec![1, 2, 3])],
                replies: vec![(id(6), vec![]), (id(7), vec![9])],
            },
        ),
        (
            "ipc_connection_idle",
            BackupObject::IpcConnection { recv_waiter: None, queue: vec![], replies: vec![] },
        ),
        ("notification", BackupObject::Notification { count: 2, waiters: vec![id(10), id(11)] }),
        (
            "irq_notification",
            BackupObject::IrqNotification { line: 33, count: 1, waiters: vec![id(12)] },
        ),
    ];
    let pmo = WireRecord::Pmo {
        npages: 16,
        eternal: true,
        synced_tick: 5,
        pages: vec![(0, 3, 0xaa), (7, 2, 0xdead_beef)],
    };
    let typed =
        objects.into_iter().map(|(n, o)| (n, WireRecord::Object(o))).chain([("pmo", pmo)]);
    let mut covered = 0;
    for (name, rec) in typed {
        let (_, hex) = GOLDEN.iter().find(|(n, _)| *n == name).expect("golden entry");
        assert_eq!(Frame::Record { oroot: 99, rec }.encode(), unhex(hex), "{name}");
        covered += 1;
    }
    assert_eq!(covered, GOLDEN.len());
}
