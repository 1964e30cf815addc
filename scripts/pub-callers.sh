#!/usr/bin/env bash
# Public items nothing calls: every `pub` fn, struct, enum, const, type
# or trait under crates/*/src that
#   - is declared before its file's test module (where that module
#     starts is nontest-loc.sh's rule: the `#[cfg(test)]` that opens a
#     `mod … {` block; a file its parent declares only for tests has no
#     non-test part at all),
#   - is not itself under `#[cfg(test)]`, and
#   - whose name appears as a word in no other `.rs` file under crates/,
#     tests/, examples/, src/ or benchmark/src, and nowhere else in its
#     own file outside the test module.
#
#   scripts/pub-callers.sh [tree]
#   scripts/pub-callers.sh --self-check
#
# Names are matched as words, nothing more: a name shared with anything
# elsewhere — a call, an unrelated item — counts as a use, so the list
# can miss an unused item but never names a used one. In a whole-line
# `//`, `///` or `//!` comment only the words of intra-doc links
# (`[…]`, and a `(…)` target right after one) count: prose naming a
# word is no use, but a link is, since a private item that public docs
# link to fails `cargo doc -D warnings`. The run
# fails when it lists a name the keep-list below does not excuse. It
# then prints, for information only, the `pub` items that only their
# own file names (candidates for private), and those that outside their
# own file only tests, bench bins or the benchmark name (tests/ and
# test-only module files, crates/bench/src/bin/, benchmark/, and the
# test module of every other file: candidates for a dev-only crate).
# Neither list is gated.
set -euo pipefail

# name<TAB>why it stays without a caller
keep='run_fig8_shadowed	DESIGN.md row S1: its unit test reproduces Fig 8 under shadowing
run_quality_curve	DESIGN.md row Q1: its unit test reproduces the quality-rate curve'

if [[ "${1:-}" == "--self-check" ]]; then
  fixture=$(mktemp -d)
  trap 'rm -rf "$fixture"' EXIT
  src="$fixture/crates/demo/src"
  mkdir -p "$src" "$fixture/tests" "$fixture/examples"
  # `called` has an outside caller, `helper` only its own file,
  # `only_tested` only its own test module, `tests_call` only a test
  # file and `unit_tests_call` only another file's test module;
  # `in_prose` is named elsewhere only in a comment's words, so it is
  # listed too. `in_a_link` is named by a doc link elsewhere and
  # `cfg_test_only` is itself test-only, so neither is listed.
  cat >"$src/lib.rs" <<'EOF'
//! Demo crate.
pub fn called() {
    helper();
}
pub fn helper() {}
pub fn only_tested() {}
pub fn in_prose() {}
pub fn in_a_link() {}
pub fn tests_call() {}
pub fn unit_tests_call() {}
pub mod other;
#[cfg(test)]
pub fn cfg_test_only() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::only_tested();
    }
}
EOF
  cat >"$src/other.rs" <<'EOF'
//! A module whose only code is its tests.
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        crate::unit_tests_call();
    }
}
EOF
  cat >"$fixture/examples/demo.rs" <<'EOF'
// Exercises in_prose, in words only.
/// Calls nothing [`demo::in_a_link`] does.
fn main() {
    demo::called();
}
EOF
  cat >"$fixture/tests/demo.rs" <<'EOF'
#[test]
fn t() {
    demo::tests_call();
}
EOF
  expected=$(printf '%s\n' \
    'pub items nothing outside their own test module names:' \
    '  crates/demo/src/lib.rs:6  fn only_tested' \
    '  crates/demo/src/lib.rs:7  fn in_prose' \
    'pub items only their own file names (not gated):' \
    '  crates/demo/src/lib.rs:5  fn helper' \
    'pub items only tests, bench bins or the benchmark name elsewhere (not gated):' \
    '  crates/demo/src/lib.rs:9  fn tests_call' \
    '  crates/demo/src/lib.rs:10  fn unit_tests_call' \
    '2 listed, 0 kept')
  status=0
  got=$("$0" "$fixture") || status=$?
  if [[ "$got" != "$expected" || $status -ne 1 ]]; then
    echo "pub-callers self-check FAILED (exit $status, want 1)" >&2
    diff <(echo "$expected") <(echo "$got") >&2 || true
    exit 1
  fi
  echo "pub-callers self-check: ok"
  exit 0
fi

cd "${1:-$(dirname "$0")/..}"

# Is `file` a module its parent declares only for tests? (nontest-loc.sh)
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

declaring=()
naming=()
while IFS= read -r file; do
  if [[ "$file" == crates/*/src/* ]] && ! test_only "$file"; then
    declaring+=("$file")
  else
    naming+=("$file")
  fi
done < <(find crates tests examples src benchmark/src -name '*.rs' 2>/dev/null | sort)

# Every file counts towards the number of files a word is in; the
# non-test part of every file that is not a test, bench bin or
# benchmark file towards the number of files whose code names it; a
# `declaring` file is also read for its items and for the words its
# non-test part holds.
awk -v keep="$keep" '
  FNR == 1 {
    done = 0; held = 0
    dev = FILENAME ~ /(^|\/)tests\// || FILENAME ~ /^(crates\/bench\/src\/bin|benchmark)\// ||
      (!declaring && FILENAME ~ /^crates\//)
  }
  {
    # A whole-line comment names only what its intra-doc links name.
    line = $0
    if (line ~ /^[[:space:]]*\/\//) {
      links = ""
      while (match(line, /\[[^]]*\](\([^)]*\))?/)) {
        links = links " " substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
      }
      line = links
    }
    n = split(line, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++)
      if (w[i] != "" && !((FILENAME, w[i]) in seen)) {
        seen[FILENAME, w[i]] = 1
        files[w[i]]++
      }
    if (done) next
    if (held && /^[[:space:]]*#\[/) next
    if (held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod [A-Za-z_0-9]+[[:space:]]*\{/) { done = 1; next }
    under_test = held
    held = 0
    if (/#\[cfg\(test\)\]/) { held = 1; next }
    if (!dev && !under_test)
      for (i = 1; i <= n; i++)
        if (w[i] != "" && !((FILENAME, w[i]) in coded)) {
          coded[FILENAME, w[i]] = 1
          code_files[w[i]]++
        }
    if (!declaring) next
    for (i = 1; i <= n; i++) if (w[i] != "") own[FILENAME, w[i]]++
    if (!under_test && match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|const|type|trait)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
      k = split(substr($0, RSTART, RLENGTH), part, /[[:space:]]+/)
      nd++
      where[nd] = FILENAME ":" FNR
      file[nd] = FILENAME
      in_dev[nd] = dev
      kind[nd] = part[k - 1]
      name[nd] = part[k]
    }
  }
  END {
    nk = split(keep, lines, "\n")
    for (i = 1; i <= nk; i++) {
      split(lines[i], kv, "\t")
      why[kv[1]] = kv[2]
    }
    print "pub items nothing outside their own test module names:"
    for (d = 1; d <= nd; d++) {
      if (files[name[d]] > 1) continue
      if (own[file[d], name[d]] > 1) { local_only[d] = 1; continue }
      listed++
      if (name[d] in why) {
        kept++
        print "  " where[d] "  " kind[d] " " name[d] "  [kept: " why[name[d]] "]"
      } else {
        print "  " where[d] "  " kind[d] " " name[d]
      }
    }
    print "pub items only their own file names (not gated):"
    for (d = 1; d <= nd; d++) if (d in local_only) print "  " where[d] "  " kind[d] " " name[d]
    print "pub items only tests, bench bins or the benchmark name elsewhere (not gated):"
    for (d = 1; d <= nd; d++)
      if (files[name[d]] > 1 && !in_dev[d] && code_files[name[d]] == 1)
        print "  " where[d] "  " kind[d] " " name[d]
    printf "%d listed, %d kept\n", listed, kept
    exit (listed > kept)
  }' declaring=1 "${declaring[@]}" declaring=0 "${naming[@]}"
