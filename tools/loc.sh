#!/usr/bin/env bash
# Prints the non-test lines of every crate under crates/, then the total.
#
#   tools/loc.sh            from the repo root, or
#   tools/loc.sh DIR        for the checkout at DIR, or
#   tools/loc.sh REV        at git revision REV and in the working tree,
#                           side by side, with the difference
#
# A file's non-test lines are its lines up to the first top-level
# `#[cfg(test)]` that opens an inline test module (`mod tests {`, also
# behind a `pub` or `pub(crate)` visibility); a `#[cfg(test)]` on a lone
# item or on an out-of-line `mod tests;` does not end the count. Files
# named `tests.rs` are skipped whole.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")/.."

# Prints `crate lines` for every crate of the checkout at $1.
count() {
  for crate in "$1"/crates/*/; do
    n=$(find "$crate/src" -name '*.rs' ! -name tests.rs -print0 | sort -z |
      xargs -0 -r awk '
        FNR == 1 { pending = 0; done = 0 }
        done { next }
        pending && /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{/ { done = 1; count -= 1; next }
        { pending = /^#\[cfg\(test\)\]/; count += 1 }
        END { print count + 0 }')
    printf '%s %d\n' "$(basename "$crate")" "$n"
  done
}

arg="${1:-$here}"
if [ -d "$arg" ]; then
  count "$arg" | awk '{ printf "%-12s %6d\n", $1, $2; t += $2 }
    END { printf "%-12s %6d\n", "total", t }'
  exit
fi

if ! git -C "$here" rev-parse -q --verify "$arg^{commit}" >/dev/null; then
  echo "loc.sh: $arg is neither a directory nor a git revision" >&2
  exit 1
fi
rev_tree=$(mktemp -d)
trap 'rm -rf "$rev_tree"' EXIT
git -C "$here" archive "$arg" crates | tar -x -C "$rev_tree"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$rev_tree" | sort) <(count "$here" | sort) |
  awk -v rev="$arg" '
    BEGIN { printf "%-12s %8s %8s %7s\n", "crate", substr(rev, 1, 8), "tree", "diff" }
    { printf "%-12s %8d %8d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-12s %8d %8d %+7d\n", "total", a, b, b - a }'
