#!/usr/bin/env bash
# Prints the non-test lines of every crate under crates/, then the total.
#
#   tools/loc.sh            from the repo root, or
#   tools/loc.sh DIR        for the checkout at DIR
#
# A file's non-test lines are its lines up to the first top-level
# `#[cfg(test)]` that opens an inline test module (`mod tests {`); a
# `#[cfg(test)]` on a lone item or on an out-of-line `mod tests;` does
# not end the count. Files named `tests.rs` are skipped whole.
set -euo pipefail
root="${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
total=0
for crate in "$root"/crates/*/; do
  n=$(find "$crate/src" -name '*.rs' ! -name tests.rs -print0 | sort -z |
    xargs -0 -r awk '
      FNR == 1 { pending = 0; done = 0 }
      done { next }
      pending && /^mod [A-Za-z_0-9]+ \{/ { done = 1; count -= 1; next }
      { pending = /^#\[cfg\(test\)\]/; count += 1 }
      END { print count + 0 }')
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
