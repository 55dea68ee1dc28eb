#!/usr/bin/env bash
# Build the benchmark binary offline and print its path.
#
# Two lines of the library crates do not compile as committed, and the PR that
# defines the benchmark may not change files outside benchmark/. So the build
# runs in `overlay/`: a copy of the repository's Cargo.toml, crates/, tests/ and
# examples/ and of this package, laid out as in the repository, with the fixes
# below applied. Each fix changes a type or a visibility, never behaviour, and
# matches only the broken text, so it does nothing once the source is corrected;
# then everything between here and the `cargo build` line goes (README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"

[ -f "$repo/Cargo.toml" ] && [ -d "$repo/crates" ] || {
    echo "build.sh: $repo holds no Cargo.toml and crates/ to measure" >&2
    exit 2
}

# fix <file under the repository> <sed expression>: source mtimes are kept so
# cargo rebuilds only when the repository's files change.
fix() {
    sed -i -e "$2" "$here/overlay/$1"
    touch -r "$repo/$1" "$here/overlay/$1"
}

rm -rf "$here/overlay"
mkdir -p "$here/overlay/benchmark"
cp -a "$repo/Cargo.toml" "$repo/crates" "$repo/tests" "$repo/examples" "$here/overlay/"
cp -a "$here/Cargo.toml" "$here/Cargo.lock" "$here/src" "$here/vendor" "$here/overlay/benchmark/"

# E0624: `Offsets::len` is private to csr.rs but disk.rs calls it.
fix crates/graph/src/csr.rs 's/^    fn len(&self) -> usize {$/    pub(crate) fn len(\&self) -> usize {/'
# E0308: `BlockPartition::vertex_assignment()` yields `Vec<MachineId>` (u16), taken as `&[u32]`.
fix crates/engines/src/blogel.rs 's/machine_of: &\[u32\]/machine_of: \&[graphbench_partition::MachineId]/'

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
(cd "$here/overlay/benchmark" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet >&2)
echo "$target/release/graphbench-benchmark"
