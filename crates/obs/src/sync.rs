//! Poison-recovering lock acquisition.
//!
//! A poisoned `Mutex` means some thread panicked while holding it — not
//! that the protected data is unusable. For every lock in this workspace
//! the guarded state is either append-only (metric maps)
//! or replaced wholesale under the lock (the serving model slot), so the
//! correct reaction to poison is to *recover and continue*: propagating
//! the panic would cascade one worker's failure into every thread that
//! touches the same lock, which is exactly what the supervision layer
//! (DESIGN.md §10) exists to prevent.
//!
//! [`lock_recover`] is the one idiom: take the lock, and on poison count
//! the observation under `cats.obs.lock.poison_recovered` and proceed
//! with the inner guard. The registry's own internals use the raw
//! `unwrap_or_else(PoisonError::into_inner)` form instead, because
//! incrementing a counter re-enters the registry.

use std::sync::{Mutex, MutexGuard};

/// Acquires `m`, recovering from poison instead of panicking. `name`
/// identifies the lock in the recovery log line; each observed poisoning
/// also increments the `cats.obs.lock.poison_recovered` counter.
pub fn lock_recover<'a, T>(m: &'a Mutex<T>, name: &str) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        crate::counter("cats.obs.lock.poison_recovered").inc();
        eprintln!("cats-obs: recovered poisoned lock {name}");
        poisoned.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn poisoned_lock_recovers_with_inner_state() {
        let m = Arc::new(Mutex::new(41));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            *g = 42;
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "precondition: the lock is poisoned");
        let before = crate::counter("cats.obs.lock.poison_recovered").get();
        let g = lock_recover(&m, "test.lock");
        assert_eq!(*g, 42, "state written before the panic is preserved");
        drop(g);
        assert!(crate::counter("cats.obs.lock.poison_recovered").get() > before);
        // Subsequent acquisitions keep working.
        assert_eq!(*lock_recover(&m, "test.lock"), 42);
    }
}
