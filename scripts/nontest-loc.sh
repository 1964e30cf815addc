#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, the count every simplicity
# PR reports (PR 12's rule): per file, the lines before the
# `#[cfg(test)]` that opens a `mod … {` block. Any other `#[cfg(test)]`
# — on a field, a fn, a `thread_local!` — ends nothing: the attribute
# and its item count. A `#[cfg(test)]` on a `mod name;` declaration
# does not end the count either — it ends it for the file it names
# (`session/tests.rs`, `net/tests.rs`), which counts zero. Summed per
# crate, then overall.
#
#   scripts/nontest-loc.sh [-v] [tree]
#   scripts/nontest-loc.sh --self-check
#
# `tree` is a checkout root (default: the one this script is in); `-v`
# also lists every file. Compare two commits by running it on two trees.
# `--self-check` counts a fixture tree with every case above and fails
# unless it reads the numbers written down here.
set -euo pipefail

if [[ "${1:-}" == "--self-check" ]]; then
  fixture=$(mktemp -d)
  trap 'rm -rf "$fixture"' EXIT
  src="$fixture/crates/demo/src"
  mkdir -p "$src"
  # lib.rs: 10 lines count — a test-only field, `thread_local!` and
  # `mod tests;` do not stop it, the attributed `mod unit {` does.
  cat >"$src/lib.rs" <<'EOF'
//! Demo crate.
pub mod early;
pub struct Probe {
    #[cfg(test)]
    seen: u32,
}
#[cfg(test)]
thread_local! {}
#[cfg(test)]
mod tests;
#[cfg(test)]
#[allow(dead_code)]
mod unit {
    fn t() {}
}
pub fn after_unit() {}
EOF
  # early.rs: an attribute on its first line hides nothing (3 lines).
  printf '#[cfg(test)]\nfn helper() {}\npub fn g() {}\n' >"$src/early.rs"
  # tests.rs: declared test-only by lib.rs, so 0.
  printf 'fn t() {}\n' >"$src/tests.rs"
  expected=$(printf '%s\n' \
    '       3  crates/demo/src/early.rs' \
    '      10  crates/demo/src/lib.rs' \
    '       0  crates/demo/src/tests.rs' \
    '     13  demo' \
    '     13  total')
  got=$("$0" -v "$fixture")
  if [[ "$got" != "$expected" ]]; then
    echo "nontest-loc self-check FAILED" >&2
    diff <(echo "$expected") <(echo "$got") >&2 || true
    exit 1
  fi
  echo "nontest-loc self-check: ok"
  exit 0
fi

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
      # `held` counts the `#[cfg(test)]` line and any attributes after
      # it until the item they sit on shows whether the count ends.
      n=$(awk '
        held && /^[[:space:]]*#\[/ { held++; next }
        held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod [A-Za-z_0-9]+[[:space:]]*\{/ { exit }
        held { n += held; held = 0 }
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
