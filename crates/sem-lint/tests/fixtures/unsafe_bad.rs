// Fixture: unsafe blocks without a SAFETY comment directly above, in a
// crate that justifies deny(unsafe_code). Not compiled; lexed by
// tests/lints.rs under crate-root and sibling-module rel paths.
#![deny(missing_docs)]
// Justification: one call into a target-feature function, behind detection.
#![deny(unsafe_code)]

fn undocumented() {
    #[allow(unsafe_code)]
    unsafe {
        work();
    }
}

fn detached() {
    // SAFETY: a blank line separates this comment from its block.

    #[allow(unsafe_code)]
    unsafe {
        work();
    }
}

fn wrong_label() {
    // Safe because the caller checked.
    unsafe { work() }
}
