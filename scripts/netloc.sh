#!/bin/sh
# netloc.sh [base] — print the added, deleted and net lines of non-test Go
# in the root module between base (default HEAD~1) and the working tree.
# Test files (*_test.go) and the separate bench/ module are excluded; every
# line counts, comments and blank lines included. Untracked files (not
# ignored) count as added whether or not they are staged. Run from the
# repository root:
#
#   sh scripts/netloc.sh            # the last commit
#   sh scripts/netloc.sh main       # everything since main
set -eu

base=${1:-HEAD~1}
{
    git diff --numstat "$base" -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/'
    git ls-files -z --others --exclude-standard -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' |
        xargs -0 -r wc -l | awk '$2 != "total" { print $1, 0 }'
} | awk '{ add += $1; del += $2 }
         END { printf "added %d deleted %d net %+d\n", add, del, add - del }'
