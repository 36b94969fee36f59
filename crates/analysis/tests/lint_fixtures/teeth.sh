#!/usr/bin/env bash
# Fixture teeth for the compiler-enforced workspace rules (DESIGN.md §13).
#
# Compiles each `<rule>/bad*.rs` and `<rule>/good.rs` under this directory
# with clippy-driver, the workspace clippy.toml and the lint levels of
# hydra-core's crate root (tests/repo_policy.rs asserts that every library
# root carries the same levels). Every bad file must fail and every good.rs
# must pass, both as a library and as a test build. Rules whose replacement
# is a policy test rather than a lint are checked by tests/repo_policy.rs.
#
# Usage: crates/analysis/tests/lint_fixtures/teeth.sh  (needs clippy-driver)
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../../.." && pwd)
policy_test_rules="schema-single-source metric-names-single-source crate-layering"

# Fixtures may name hydra_types (RowMap, SatCounters).
cargo build -q --offline --manifest-path "$root/Cargo.toml" -p hydra-types || exit 1
target=${CARGO_TARGET_DIR:-$root/target}/debug
levels=$(grep -E '^#!\[(forbid|deny)\(' "$root/crates/core/src/lib.rs")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
check() { # <expect: fail|pass> <fixture> [--test]
    { echo "$levels"; cat "$2"; } >"$scratch/fixture.rs"
    CLIPPY_CONF_DIR="$root" clippy-driver --edition 2021 --crate-type lib ${3:-} \
        --extern hydra_types="$target/libhydra_types.rlib" -L "dependency=$target/deps" \
        --emit=metadata -o "$scratch/out.rmeta" "$scratch/fixture.rs" >"$scratch/log" 2>&1
    local status=$?
    if { [ "$1" = fail ] && [ $status -eq 0 ]; } || { [ "$1" = pass ] && [ $status -ne 0 ]; }; then
        echo "FAIL: ${2#"$here"/} ${3:-} should $1"
        sed 's/^/    /' "$scratch/log"
        return 1
    fi
    echo "ok: ${2#"$here"/} ${3:-}: expected to ${1}, did"
}

failures=0
for dir in "$here"/*/; do
    dir=${dir%/}
    rule=$(basename "$dir")
    case " $policy_test_rules " in *" $rule "*) continue ;; esac
    for mode in "" --test; do
        for bad in "$dir"/bad*.rs; do
            check fail "$bad" $mode || failures=$((failures + 1))
        done
        check pass "$dir/good.rs" $mode || failures=$((failures + 1))
    done
done
[ $failures -eq 0 ] || { echo "$failures fixture check(s) failed"; exit 1; }
echo "all fixture checks passed"
