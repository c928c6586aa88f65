//! End-to-end demonstration of the replay workflow the runner advertises:
//! capture a failure's printed seed, then rerun with `BFC_TESTKIT_SEED` set
//! and observe the identical failing case.
//!
//! Setting an env var is process-global, so this lives in its own
//! integration-test binary rather than the crate's unit tests.

use bfc_testkit::{check_result, int_range, vec_of, Config};

#[test]
fn env_seed_replays_the_reported_failing_case() {
    let gen = vec_of(int_range(0u64..1_000), 1..50);
    let prop = |v: &Vec<u64>| assert!(v.iter().sum::<u64>() < 2_000, "sum too large");

    let first =
        check_result("sum_bounded", Config::default(), &gen, prop).expect_err("property must fail");

    // What a user would do: export BFC_TESTKIT_SEED=<printed seed> and rerun
    // (the `property!` macro builds its config with `Config::from_env`).
    std::env::set_var("BFC_TESTKIT_SEED", format!("{:#x}", first.seed));
    let replayed = check_result("sum_bounded", Config::from_env(), &gen, prop)
        .expect_err("replay must fail the same way");
    std::env::remove_var("BFC_TESTKIT_SEED");

    assert_eq!(replayed.seed, first.seed);
    assert_eq!(
        replayed.case, 0,
        "replay mode runs exactly the one requested case"
    );
    assert_eq!(replayed.original_input, first.original_input);
    assert_eq!(replayed.shrunk_input, first.shrunk_input);
}
