//! Property-based tests for kernel data structures and the page
//! versioning rules.

use proptest::prelude::*;

use treesls_kernel::pmo::{PageMeta, PagePtr};
use treesls_kernel::radix::Radix;
use treesls_nvm::FrameId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The radix tree behaves exactly like a BTreeMap under random
    /// insert/remove/get sequences with sparse 64-bit keys.
    #[test]
    fn radix_matches_btreemap(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..1 << 40, any::<u32>()), 1..300),
    ) {
        let mut tree: Radix<u32> = Radix::new();
        let mut model = std::collections::BTreeMap::new();
        for (kind, key, val) in ops {
            match kind {
                0 => {
                    prop_assert_eq!(tree.insert(key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(tree.remove(key), model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(tree.get(key), model.get(&key));
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        // Iteration order and contents match.
        let got: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// §4.2/§4.3.3 versioning: for every committed global version, the
    /// restore pick (a) exists whenever any pair entry has a committed
    /// version, (b) never selects an uncommitted (in-flight) tag, and
    /// (c) the speculative-copy destination never targets the pick.
    #[test]
    fn restore_pick_is_safe(
        v0 in proptest::option::of(0u64..20),
        v1 in proptest::option::of(0u64..20),
        global in 0u64..20,
        migrated in any::<bool>(),
    ) {
        let meta = PageMeta {
            pairs: [
                v0.map(|v| PagePtr { frame: FrameId(1), version: v, crc: None }),
                v1.map(|v| PagePtr { frame: FrameId(2), version: v, crc: None }),
            ],
            runtime_dram: migrated.then_some(treesls_nvm::DramId(0)),
            writable: false,
            hotness: 0,
            dirty: false,
            on_active_list: false,
            idle_rounds: 0,
            eternal: false,
            epoch_round: 0,
            epoch_capture: None,
            inline_log: None,
            unshipped: true,
        };
        let pick = meta.restore_pick(global);
        let committed_exists =
            v0.is_some_and(|v| v <= global) || v1.is_some_and(|v| v <= global);
        if committed_exists {
            let p = pick.expect("committed data must be recoverable");
            let chosen = meta.pairs[p].expect("picked entry exists");
            prop_assert!(chosen.version <= global,
                "picked uncommitted tag {} > global {global}", chosen.version);
            // The stop-and-copy destination must differ from the pick.
            prop_assert_ne!(meta.sac_dst(global), p);
        }
        // Paper rule case ❶: an exact-version backup always wins.
        if v0 == Some(global) {
            prop_assert_eq!(pick, Some(0));
        } else if v1 == Some(global) {
            prop_assert_eq!(pick, Some(1));
        } else if v1 == Some(0) {
            // Case ❷/❸: the runtime NVM page (version 0) is used when no
            // exact backup exists.
            prop_assert_eq!(pick, Some(1));
        }
    }
}
