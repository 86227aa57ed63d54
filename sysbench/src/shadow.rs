//! The host-side shadow model: what every key must hold, judged only
//! from the requests sent and the acknowledgements seen.
//!
//! Per key the model keeps the fingerprints of the last *acknowledged*
//! write and of every write *sent* after it. A read is correct when it
//! returns one of the values its window allows:
//!
//! * **strict** (lockstep): exactly the latest write sent before the read
//!   — a key's requests share one FIFO queue, so nothing older may show;
//! * **relaxed** (open loop, and every read after a crash): the last
//!   acknowledged write or any later sent one — an unacknowledged write
//!   may or may not have survived, an acknowledged one must have.
//!
//! Responses must be judged in send order (the drivers do): acknowledging
//! a write drops the history below it.

use std::collections::VecDeque;

use crate::gen::{Reply, Req};

/// Fingerprint standing for "the key holds no value".
pub const NO_VALUE: u64 = 0;

#[derive(Debug, Clone)]
struct KeyState {
    /// Version of `vals[0]`, the last acknowledged write (version 0 is
    /// the never-written state, [`NO_VALUE`]).
    acked: u32,
    /// Fingerprints of versions `acked ..= acked + vals.len() - 1`.
    vals: VecDeque<u64>,
}

/// The versions a read may legitimately return, fixed when it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadWindow {
    pub key: u32,
    lo: u32,
    hi: u32,
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct Shadow {
    keys: Vec<KeyState>,
}

impl Shadow {
    pub fn new(keys: u32) -> Self {
        let fresh = KeyState {
            acked: 0,
            vals: VecDeque::from([NO_VALUE]),
        };
        Self {
            keys: vec![fresh; keys as usize],
        }
    }

    /// Records a write as sent; returns its version for [`Self::write_acked`].
    pub fn write_sent(&mut self, key: u32, fp: u64) -> u32 {
        let k = &mut self.keys[key as usize];
        k.vals.push_back(fp);
        k.acked + k.vals.len() as u32 - 1
    }

    /// Records the acknowledgement of write `version` of `key`.
    pub fn write_acked(&mut self, key: u32, version: u32) {
        let k = &mut self.keys[key as usize];
        while k.acked < version && k.vals.len() > 1 {
            k.vals.pop_front();
            k.acked += 1;
        }
    }

    /// The window of a read sent now.
    pub fn read_sent(&self, key: u32, strict: bool) -> ReadWindow {
        let k = &self.keys[key as usize];
        let hi = k.acked + k.vals.len() as u32 - 1;
        ReadWindow {
            key,
            lo: if strict { hi } else { k.acked },
            hi,
        }
    }

    /// Whether a read that returned `got` (a value fingerprint, or
    /// [`NO_VALUE`] for a miss) is inside its window.
    pub fn read_ok(&self, w: &ReadWindow, got: u64) -> bool {
        let k = &self.keys[w.key as usize];
        // Versions below `k.acked` were superseded by an acknowledged
        // write that was sent before this read: no longer acceptable.
        (w.lo.max(k.acked)..=w.hi).any(|v| k.vals[(v - k.acked) as usize] == got)
    }

    /// Keys that were ever written (sent counts: a crash may have kept it).
    pub fn written_keys(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.keys.len() as u32).filter(|&k| {
            let s = &self.keys[k as usize];
            s.acked > 0 || s.vals.len() > 1
        })
    }
}

/// What the response to one sent request must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Write { key: u32, version: u32 },
    Read(ReadWindow),
}

impl Shadow {
    /// Records `req` as sent and returns what its response must satisfy.
    pub fn sent(&mut self, req: &Req, strict: bool) -> Expect {
        match req.write {
            Some(fp) => Expect::Write {
                key: req.key,
                version: self.write_sent(req.key, fp),
            },
            None => Expect::Read(self.read_sent(req.key, strict)),
        }
    }

    /// Judges the decoded response to a request sent as `expect`; an
    /// acknowledged write becomes the key's new floor. Returns whether
    /// the response is correct.
    pub fn judge(&mut self, expect: &Expect, reply: Reply) -> bool {
        match (expect, reply) {
            (Expect::Write { key, version }, Reply::Written(_)) => {
                self.write_acked(*key, *version);
                true
            }
            (Expect::Read(w), Reply::Value(fp)) => self.read_ok(w, fp),
            (Expect::Read(w), Reply::Miss) => self.read_ok(w, NO_VALUE),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_ties_requests_to_replies() {
        let mut s = Shadow::new(2);
        let set = Req {
            key: 1,
            flow: 0,
            payload: vec![],
            write: Some(42),
        };
        let get = Req {
            key: 1,
            flow: 0,
            payload: vec![],
            write: None,
        };
        let e_set = s.sent(&set, true);
        let e_get = s.sent(&get, true);
        assert!(
            !s.judge(&e_set, Reply::Other),
            "an error reply to a write is a failure"
        );
        assert!(
            !s.judge(&e_set, Reply::Value(42)),
            "a read reply to a write is a failure"
        );
        assert!(s.judge(&e_set, Reply::Written(0)));
        assert!(s.judge(&e_get, Reply::Value(42)));
        assert!(!s.judge(&e_get, Reply::Miss));
        assert!(!s.judge(&e_get, Reply::Written(0)));
    }

    #[test]
    fn strict_read_must_return_the_latest_sent_write() {
        let mut s = Shadow::new(4);
        let v1 = s.write_sent(2, 111);
        s.write_acked(2, v1);
        let _v2 = s.write_sent(2, 222);
        let w = s.read_sent(2, true);
        assert!(s.read_ok(&w, 222));
        // Injected stale GET: the driver's copy of the response is
        // replaced by the previous value.
        assert!(!s.read_ok(&w, 111), "a stale read must be flagged");
        assert!(
            !s.read_ok(&w, NO_VALUE),
            "a miss on a written key must be flagged"
        );
        assert!(!s.read_ok(&w, 999), "a garbled value must be flagged");
    }

    #[test]
    fn relaxed_read_allows_acked_or_any_later_sent_value() {
        let mut s = Shadow::new(1);
        let v1 = s.write_sent(0, 10);
        s.write_acked(0, v1);
        s.write_sent(0, 20);
        s.write_sent(0, 30);
        let w = s.read_sent(0, false);
        for ok in [10, 20, 30] {
            assert!(s.read_ok(&w, ok));
        }
        assert!(!s.read_ok(&w, NO_VALUE));
        // A write sent after the read is outside its window.
        s.write_sent(0, 40);
        assert!(!s.read_ok(&w, 40));
    }

    #[test]
    fn acked_then_missing_key_is_a_lost_ack() {
        let mut s = Shadow::new(8);
        let v = s.write_sent(5, 77);
        s.write_acked(5, v);
        // Post-recovery check: the GET comes back as a miss.
        let w = s.read_sent(5, false);
        assert!(
            !s.read_ok(&w, NO_VALUE),
            "an acked write that vanished must be flagged"
        );
        // An older value than the acked one is just as lost.
        let v2 = s.write_sent(5, 88);
        s.write_acked(5, v2);
        let w = s.read_sent(5, false);
        assert!(!s.read_ok(&w, 77));
        assert!(s.read_ok(&w, 88));
    }

    #[test]
    fn unacked_write_may_or_may_not_survive_a_crash() {
        let mut s = Shadow::new(1);
        s.write_sent(0, 5); // sent, never acknowledged
        let w = s.read_sent(0, false);
        assert!(s.read_ok(&w, NO_VALUE));
        assert!(s.read_ok(&w, 5));
    }

    #[test]
    fn acknowledging_prunes_history_but_keeps_later_sends() {
        let mut s = Shadow::new(1);
        let v1 = s.write_sent(0, 1);
        let v2 = s.write_sent(0, 2);
        let v3 = s.write_sent(0, 3);
        let early = s.read_sent(0, false);
        s.write_acked(0, v2);
        assert!(!s.read_ok(&early, 1), "superseded by an acked write");
        assert!(s.read_ok(&early, 2) && s.read_ok(&early, 3));
        // Acks are idempotent and never run past what was sent.
        s.write_acked(0, v1);
        s.write_acked(0, v3 + 10);
        assert!(s.read_ok(&s.read_sent(0, true), 3));
    }

    #[test]
    fn written_keys_lists_sent_and_acked_keys_only() {
        let mut s = Shadow::new(5);
        s.write_sent(1, 9);
        let v = s.write_sent(3, 9);
        s.write_acked(3, v);
        assert_eq!(s.written_keys().collect::<Vec<_>>(), vec![1, 3]);
    }
}
