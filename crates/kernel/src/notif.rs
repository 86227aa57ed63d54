//! Notification and IRQ-notification objects.
//!
//! Notifications are TreeSLS's synchronization primitive ("for
//! synchronization (like semaphores)", Table 1); IRQ notifications model "a
//! hardware signal sent to the processor". Both are small objects that the
//! checkpoint simply copies (§4.1, "IPC Connection, Notification and IRQ
//! Notification ... We directly copy them to the backup capability tree").

use std::collections::VecDeque;

use crate::types::ObjId;

/// Runtime body of a Notification object (a counting semaphore).
#[derive(Debug, Clone, Default)]
pub struct NotifBody {
    /// Pending signal count.
    pub count: u64,
    /// Threads blocked waiting for a signal, FIFO.
    pub waiters: VecDeque<ObjId>,
}

impl NotifBody {
    /// Creates a notification with no pending signals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a signal; returns the thread to wake, if any.
    ///
    /// Counting-semaphore semantics: the count is incremented *and* one
    /// waiter (if any) is woken; the woken thread re-issues its wait,
    /// which then consumes the count. Transferring the signal to the
    /// waiter without counting it would lose a wakeup whenever the woken
    /// thread re-checks the condition (programs resume at their wait
    /// step), and — worse — a checkpoint between wake and re-wait would
    /// persist the token nowhere.
    pub fn signal(&mut self) -> Option<ObjId> {
        self.count += 1;
        self.waiters.pop_front()
    }

    /// Whether a signal is pending with nobody waiting for it: a further
    /// device raise would only add a token whose consumer finds nothing
    /// new (see `Kernel::signal_objects`).
    pub fn is_pending(&self) -> bool {
        self.count > 0 && self.waiters.is_empty()
    }

    /// Attempts to consume a signal for `thread`.
    ///
    /// Returns `true` if a signal was consumed (the thread proceeds) or
    /// `false` if the thread was queued as a waiter (it must block).
    pub fn wait(&mut self, thread: ObjId) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            self.waiters.push_back(thread);
            false
        }
    }

    /// Removes a thread from the waiter queue (e.g. on thread exit).
    pub fn remove_waiter(&mut self, thread: ObjId) {
        self.waiters.retain(|&t| t != thread);
    }
}

/// Runtime body of an IRQ Notification object.
///
/// A user-space driver binds one to a (virtual) interrupt line and waits on
/// it; the kernel's `raise_irq` signals it, mirroring how microkernels
/// convert hardware interrupts into IPC/notification messages.
#[derive(Debug, Clone)]
pub struct IrqNotifBody {
    /// The virtual interrupt line this object is bound to.
    pub line: u32,
    /// Pending (unconsumed) interrupt count.
    pub inner: NotifBody,
}

impl IrqNotifBody {
    /// Creates an IRQ notification bound to `line`.
    pub fn new(line: u32) -> Self {
        Self { line, inner: NotifBody::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_nvm::{ObjectStore, SlotId};

    fn tid(n: u32) -> ObjId {
        // Build distinct ids via a throwaway store.
        let mut s: ObjectStore<u32> = ObjectStore::new();
        let mut last = SlotId::INVALID;
        for i in 0..=n {
            last = s.insert(i);
        }
        last
    }

    #[test]
    fn signal_accumulates_without_waiters() {
        let mut n = NotifBody::new();
        assert_eq!(n.signal(), None);
        assert_eq!(n.signal(), None);
        assert_eq!(n.count, 2);
    }

    #[test]
    fn wait_consumes_pending_signal() {
        let mut n = NotifBody::new();
        n.signal();
        assert!(n.wait(tid(0)));
        assert_eq!(n.count, 0);
        assert!(n.waiters.is_empty());
    }

    #[test]
    fn wait_blocks_when_empty_then_signal_wakes_fifo() {
        let mut n = NotifBody::new();
        let (a, b) = (tid(0), tid(1));
        assert!(!n.wait(a));
        assert!(!n.wait(b));
        assert_eq!(n.signal(), Some(a));
        assert_eq!(n.signal(), Some(b));
        assert_eq!(n.signal(), None);
        // Counting semantics: every signal accumulates; the woken threads'
        // re-waits consume them.
        assert_eq!(n.count, 3);
        assert!(n.wait(a));
        assert!(n.wait(b));
        assert!(n.wait(a));
        assert!(!n.wait(a));
    }

    #[test]
    fn remove_waiter_drops_thread() {
        let mut n = NotifBody::new();
        let (a, b) = (tid(0), tid(1));
        n.wait(a);
        n.wait(b);
        n.remove_waiter(a);
        assert_eq!(n.signal(), Some(b));
        assert_eq!(n.count, 1);
    }

    #[test]
    fn irq_notification_wraps_notif() {
        let mut irq = IrqNotifBody::new(7);
        assert_eq!(irq.line, 7);
        assert_eq!(irq.inner.signal(), None);
        assert!(irq.inner.wait(tid(0)));
    }
}
