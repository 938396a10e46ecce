#!/usr/bin/env bash
# Interleaved A/B timing of a parent revision against the working tree.
#
#   crates/bench/ab/ab.sh <parent-rev> [cell]
#
# Writes `git archive <parent-rev>` to target/ab-parent/, renames every
# package there `<name>-parent` (the workspace dependencies keep their
# keys and gain `package = "<name>-parent"`, so no parent source is
# edited), then builds and runs the harness in this directory, which
# links that copy as `old` and the working tree as `new`. `cell` keeps
# the cells whose names contain it. The report is printed and written to
# target/ab-parent/report.json. Offline: nothing is downloaded.
# `ab.sh HEAD` is an A/A run: both sides are the same code.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <parent-rev> [cell]" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: unknown revision $1" >&2
    exit 2
}
copy=target/ab-parent

# Re-extract only for a new revision. Extracted files take the current
# time (`tar -m`), so cargo never mistakes an older revision's sources
# for the build it already has.
if [ "$(cat "$copy/.rev" 2>/dev/null)" != "$parent" ]; then
    rm -rf "$copy"
    mkdir -p "$copy"
    git archive "$parent" | tar -x -m -C "$copy"
    for manifest in "$copy"/crates/*/Cargo.toml; do
        dir=$(basename "$(dirname "$manifest")")
        name=$(sed -n '/^\[package\]/,/^\[/ s/^name = "\(.*\)"$/\1/p' "$manifest")
        sed -i '/^\[package\]/,/^\[/ s/^name = ".*"$/name = "'"$name"'-parent"/' "$manifest"
        sed -i 's|path = "crates/'"$dir"'" }|path = "crates/'"$dir"'", package = "'"$name"'-parent" }|' \
            "$copy/Cargo.toml"
    done
    echo "$parent" > "$copy/.rev"
fi

cargo run --release --offline --manifest-path crates/bench/ab/Cargo.toml \
    --target-dir target/ab -- "$parent" ${2+"$2"}
