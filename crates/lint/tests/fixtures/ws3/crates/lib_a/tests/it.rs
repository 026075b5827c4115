use lib_a::{bare_allow, only_tests};

#[test]
fn integration() {
    assert_eq!(only_tests() + bare_allow(), 7);
}
