#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, the count every simplicity
# PR reports (PR 12's rule): per file, the lines before its first
# `#[cfg(test)]`. A `#[cfg(test)]` on a `mod name;` declaration does
# not end the count — it ends it for the file it names
# (`session/tests.rs`, `net/tests.rs`), which counts zero. Summed per
# crate, then overall.
#
#   scripts/nontest-loc.sh [-v] [tree]
#
# `tree` is a checkout root (default: the one this script is in); `-v`
# also lists every file. Compare two commits by running it on two trees.
set -euo pipefail

verbose=0
if [[ "${1:-}" == "-v" ]]; then
  verbose=1
  shift
fi
cd "${1:-$(dirname "$0")/..}"

# Is `file` a module its parent declares only for tests?
test_only() {
  local file=$1 dir stem parent
  dir=$(dirname "$file")
  stem=$(basename "$file" .rs)
  for parent in "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs" "$dir.rs"; do
    [[ -f "$parent" && "$parent" != "$file" ]] || continue
    if grep -A1 -F '#[cfg(test)]' "$parent" | grep -qx "mod $stem;"; then
      return 0
    fi
  done
  return 1
}

total=0
for crate in crates/*; do
  [[ -d "$crate/src" ]] || continue
  sum=0
  while IFS= read -r file; do
    if test_only "$file"; then
      n=0
    else
      n=$(awk '
        held { held = 0; if ($0 ~ /^[[:space:]]*mod [a-z_0-9]+;/) { n += 2; next } else exit }
        /#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + 0 }' "$file")
    fi
    sum=$((sum + n))
    if ((verbose)); then
      printf '  %6d  %s\n' "$n" "$file"
    fi
  done < <(find "$crate/src" -name '*.rs' | sort)
  printf '%7d  %s\n' "$sum" "$(basename "$crate")"
  total=$((total + sum))
done
printf '%7d  total\n' "$total"
