//! The nested workspace's tests are not referrers.

#[test]
fn reaches_only_tests() {
    let _ = lib_a::only_tests();
}
