//! `cij_storage::sync`: the lock helpers behave like the plain `std::sync`
//! calls, except that a holder that panicked does not poison the lock for
//! the buffer pool, the stores and the dist transports that take it next.

use std::sync::{Arc, Mutex, RwLock};
use std::thread;

use cij_storage::sync;

#[test]
fn mutex_roundtrip() {
    let mut m = Mutex::new(1);
    *sync::lock(&m) += 1;
    assert_eq!(*sync::lock(&m), 2);
    *sync::get_mut(&mut m) += 1;
    assert_eq!(*sync::lock(&m), 3);
}

#[test]
fn rwlock_roundtrip() {
    let l = RwLock::new(5);
    assert_eq!(*sync::read(&l), 5);
    *sync::write(&l) = 6;
    assert_eq!(*sync::read(&l), 6);
}

#[test]
fn lock_survives_panicked_holder() {
    let m = Arc::new(Mutex::new(0));
    let l = Arc::new(RwLock::new(0));
    let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
    let holder = thread::spawn(move || {
        let _m = sync::lock(&m2);
        let _l = sync::write(&l2);
        panic!("poison attempt");
    });
    assert!(holder.join().is_err());
    assert!(m.is_poisoned() && l.is_poisoned());

    *sync::lock(&m) += 1;
    assert_eq!(*sync::lock(&m), 1);
    *sync::write(&l) += 1;
    assert_eq!(*sync::read(&l), 1);
    let mut m = Arc::into_inner(m).expect("the holder is gone");
    *sync::get_mut(&mut m) += 1;
    assert_eq!(*sync::lock(&m), 2);
}
