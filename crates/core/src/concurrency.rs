//! Concurrency control (§2): "the process of arbitration and
//! consistency maintenance when multiple clients concurrently
//! manipulate the same set of shared objects."
//!
//! Two mechanisms, as is standard for loosely coupled peer
//! architectures:
//!
//! * a [`LamportClock`] per client providing a total order over
//!   concurrent updates (ties broken by client name), and
//! * a [`LockManager`] arbitrating exclusive manipulation of shared
//!   objects; contending requests are granted in Lamport order, and
//!   losing requests queue rather than being dropped ("ensures that no
//!   information is lost").

use std::collections::{HashMap, VecDeque};

/// A Lamport logical clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LamportClock {
    time: u64,
}

impl LamportClock {
    /// A clock at zero.
    pub fn new() -> LamportClock {
        LamportClock::default()
    }

    /// Current value.
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Tick for a local event; returns the new timestamp.
    pub fn tick(&mut self) -> u64 {
        self.time += 1;
        self.time
    }

    /// Merge an observed remote timestamp, then tick.
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.time = self.time.max(remote);
        self.tick()
    }
}

/// Total order over updates: `(lamport, client)` lexicographic.
pub fn happened_before(a: (u64, &str), b: (u64, &str)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// Granted immediately.
    Granted,
    /// Queued behind the current holder (position in queue, 0-based).
    Queued(usize),
    /// The requester already holds the lock.
    AlreadyHeld,
}

/// Per-object exclusive lock arbitration with FIFO-in-Lamport-order
/// queuing.
#[derive(Debug, Default)]
pub struct LockManager {
    /// object -> (holder, lamport at grant)
    held: HashMap<u64, (String, u64)>,
    /// object -> waiting (lamport, client), kept sorted by Lamport order.
    waiting: HashMap<u64, VecDeque<(u64, String)>>,
    /// Grant history for audit/tests: (object, client, lamport).
    history: Vec<(u64, String, u64)>,
}

impl LockManager {
    /// An empty manager.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Current holder of `object`, if any.
    pub fn holder(&self, object: u64) -> Option<&str> {
        self.held.get(&object).map(|(c, _)| c.as_str())
    }

    /// Queue length for `object`.
    pub fn queue_len(&self, object: u64) -> usize {
        self.waiting.get(&object).map_or(0, VecDeque::len)
    }

    /// Grant log, oldest first.
    pub fn history(&self) -> &[(u64, String, u64)] {
        &self.history
    }

    /// Request the lock on `object` for `client` at `lamport`.
    pub fn request(&mut self, object: u64, client: &str, lamport: u64) -> LockOutcome {
        if let Some((holder, _)) = self.held.get(&object) {
            if holder == client {
                return LockOutcome::AlreadyHeld;
            }
            let queue = self.waiting.entry(object).or_default();
            // Insert in Lamport order (dedup same client).
            if let Some(pos) = queue.iter().position(|(_, c)| c == client) {
                return LockOutcome::Queued(pos);
            }
            let pos = queue
                .iter()
                .position(|(l, c)| happened_before((lamport, client), (*l, c)))
                .unwrap_or(queue.len());
            queue.insert(pos, (lamport, client.to_string()));
            LockOutcome::Queued(pos)
        } else {
            self.held.insert(object, (client.to_string(), lamport));
            self.history.push((object, client.to_string(), lamport));
            LockOutcome::Granted
        }
    }

    /// Release `object`; only the holder may release. Returns the next
    /// client granted the lock, if any was queued.
    pub fn release(&mut self, object: u64, client: &str) -> Result<Option<String>, String> {
        match self.held.get(&object) {
            Some((holder, _)) if holder == client => {
                self.held.remove(&object);
                if let Some(queue) = self.waiting.get_mut(&object) {
                    if let Some((lamport, next)) = queue.pop_front() {
                        self.held.insert(object, (next.clone(), lamport));
                        self.history.push((object, next.clone(), lamport));
                        if queue.is_empty() {
                            self.waiting.remove(&object);
                        }
                        return Ok(Some(next));
                    }
                }
                Ok(None)
            }
            Some((holder, _)) => Err(format!("'{client}' does not hold lock (holder '{holder}')")),
            None => Err(format!("object {object} is not locked")),
        }
    }
}

/// A versioned register resolving concurrent writes by Lamport order —
/// the consistency rule used by the state repository.
#[derive(Debug, Clone)]
pub struct LwwRegister<T> {
    /// Current value with its (lamport, client) stamp.
    pub current: Option<(u64, String, T)>,
    /// All superseded writes, never discarded.
    pub history: Vec<(u64, String, T)>,
}

impl<T> Default for LwwRegister<T> {
    fn default() -> Self {
        LwwRegister {
            current: None,
            history: Vec::new(),
        }
    }
}

impl<T: Clone> LwwRegister<T> {
    /// Apply a write; returns whether it became the current value.
    pub fn write(&mut self, lamport: u64, client: &str, value: T) -> bool {
        match &self.current {
            Some((l, c, _)) if !happened_before((*l, c.as_str()), (lamport, client)) => {
                // Stale write: keep it in history only.
                self.history.push((lamport, client.to_string(), value));
                false
            }
            _ => {
                if let Some(old) = self.current.take() {
                    self.history.push(old);
                }
                self.current = Some((lamport, client.to_string(), value));
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamport_clock_merges() {
        let mut c = LamportClock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.observe(10), 11);
        assert_eq!(c.observe(5), 12, "stale remote still advances");
    }

    #[test]
    fn total_order_ties_break_by_name() {
        assert!(happened_before((3, "a"), (3, "b")));
        assert!(!happened_before((3, "b"), (3, "a")));
        assert!(happened_before((2, "z"), (3, "a")));
    }

    #[test]
    fn lock_grant_queue_release() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, "alice", 5), LockOutcome::Granted);
        assert_eq!(lm.request(1, "alice", 6), LockOutcome::AlreadyHeld);
        assert_eq!(lm.request(1, "bob", 7), LockOutcome::Queued(0));
        assert_eq!(
            lm.request(1, "carol", 6),
            LockOutcome::Queued(0),
            "earlier lamport jumps queue"
        );
        assert_eq!(
            lm.request(1, "bob", 9),
            LockOutcome::Queued(1),
            "dedup keeps position"
        );
        assert_eq!(lm.holder(1), Some("alice"));
        let next = lm.release(1, "alice").unwrap();
        assert_eq!(next.as_deref(), Some("carol"));
        assert_eq!(lm.holder(1), Some("carol"));
        assert_eq!(lm.queue_len(1), 1);
        assert_eq!(lm.release(1, "carol").unwrap().as_deref(), Some("bob"));
        assert_eq!(lm.release(1, "bob").unwrap(), None);
        assert_eq!(lm.holder(1), None);
        assert_eq!(lm.history().len(), 3);
    }

    #[test]
    fn release_guards() {
        let mut lm = LockManager::new();
        lm.request(1, "alice", 1);
        assert!(lm.release(1, "bob").is_err());
        assert!(lm.release(2, "alice").is_err());
    }

    #[test]
    fn independent_objects_do_not_contend() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, "a", 1), LockOutcome::Granted);
        assert_eq!(lm.request(2, "b", 1), LockOutcome::Granted);
    }

    #[test]
    fn lww_register_keeps_history() {
        let mut r = LwwRegister::default();
        assert!(r.write(1, "alice", "v1"));
        assert!(r.write(3, "bob", "v2"));
        assert!(!r.write(2, "carol", "late"), "stale write rejected");
        let (_, _, cur) = r.current.clone().unwrap();
        assert_eq!(cur, "v2");
        assert_eq!(r.history.len(), 2, "both non-current writes retained");
    }

    #[test]
    fn lww_concurrent_tie_breaks_by_client() {
        let mut r1 = LwwRegister::default();
        r1.write(5, "alice", 10);
        r1.write(5, "bob", 20);
        let mut r2 = LwwRegister::default();
        r2.write(5, "bob", 20);
        r2.write(5, "alice", 10);
        assert_eq!(
            r1.current.as_ref().unwrap().2,
            r2.current.as_ref().unwrap().2,
            "replicas converge regardless of arrival order"
        );
        assert_eq!(r1.current.unwrap().1, "bob");
    }
}
