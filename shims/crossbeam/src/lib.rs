//! Offline stand-in for the subset of `crossbeam` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves the `crossbeam` dependency to this path crate. It provides the
//! `channel::bounded` MPSC API on top of `std::sync::mpsc::sync_channel`,
//! which has the same blocking-bounded semantics (including the rendezvous
//! behaviour of capacity 0). Only the surface the engine actually calls is
//! implemented.

#![forbid(unsafe_code)]

pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError, TrySendError};

    /// Sending half of a bounded channel.
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    impl<T> Sender<T> {
        /// Block until the value is accepted, or fail if every receiver is
        /// gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }

        /// Non-blocking send: fails with `TrySendError::Full` instead of
        /// waiting when the channel is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.inner.try_send(value)
        }
    }

    /// Receiving half of a bounded channel. Cloneable (receivers share the
    /// queue), like crossbeam's.
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives, or fail once the channel is closed
        /// and drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.lock().unwrap().recv()
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.lock().unwrap().try_recv()
        }

        /// Blocking iterator over received values; ends when the channel is
        /// closed and drained.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// A bounded FIFO channel; `bounded(0)` is a rendezvous channel.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender { inner: tx }, Receiver { inner: Arc::new(Mutex::new(rx)) })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = bounded(8);
        for i in 0..8 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let seen: Vec<i32> = rx.into_iter().collect();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_send_reports_full_without_blocking() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert!(tx.try_send(2).is_err());
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = bounded(2);
        let handle = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut total = 0u32;
        for v in rx {
            total += v;
        }
        handle.join().unwrap();
        assert_eq!(total, (0..100).sum());
    }
}
