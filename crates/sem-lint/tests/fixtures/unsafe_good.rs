// Fixture: every unsafe block carries a SAFETY comment directly above it,
// in a crate that justifies deny(unsafe_code). Not compiled; lexed by
// tests/lints.rs.
#![deny(missing_docs)]
// Justification: one call into a target-feature function, behind detection.
#![deny(unsafe_code)]

fn documented() {
    // SAFETY: the host reported the feature before this table was built,
    // so the target-feature call is sound.
    #[allow(unsafe_code)]
    unsafe {
        work();
    }
}

fn attribute_free() {
    // SAFETY: `work` has no preconditions.
    unsafe { work() }
}

unsafe fn not_a_block() {}
