//! Poison-transparent locking on `std::sync`.
//!
//! The buffer pool, the page stores, the partitioned pair's rounds and
//! the dist transports take their locks through these, so a holder that
//! panicked does not poison the lock: the next holder takes the guard out
//! of the [`PoisonError`].

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, blocking until it is free.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared guard on `rwlock`.
pub fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive guard on `rwlock`.
pub fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Borrows the value behind `mutex` mutably; no locking needed.
pub fn get_mut<T: ?Sized>(mutex: &mut Mutex<T>) -> &mut T {
    mutex.get_mut().unwrap_or_else(PoisonError::into_inner)
}
