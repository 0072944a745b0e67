#!/bin/sh
# check-doc-links.sh — fail if README/docs markdown references local files
# that don't exist. Scans every tracked .md file for inline links and for
# backtick-quoted repo paths, skipping URLs and pure anchors, and every
# tracked .go file for the .md files it names. Run from the repository
# root (CI does).
set -eu

fail=0
for md in $(git ls-files '*.md' 2>/dev/null || find . -name '*.md' -not -path './.git/*'); do
    dir=$(dirname "$md")
    # Inline markdown links: [text](target), outside `code spans` (where
    # markdown renders no link, e.g. `f[T](x T)`).
    for target in $(sed 's/`[^`]*`//g' "$md" | grep -o '](\([^)]*\))' | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "$md: broken link: $target" >&2
            fail=1
        fi
    done
    # Backtick-quoted repo paths that look like files we ship, e.g.
    # `.github/workflows/ci.yml` or `scripts/check-doc-links.sh`.
    for target in $(grep -o '`[A-Za-z0-9_.-]*/[A-Za-z0-9_./-]*\.\(go\|md\|sh\|yml\)`' "$md" 2>/dev/null | tr -d '\`'); do
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
            echo "$md: broken path reference: $target" >&2
            fail=1
        fi
    done
done

# Markdown files that Go source names in comments or strings, e.g.
# "see EXPERIMENTS.md", resolved against the source file's directory or
# the repository root.
for ref in $(git ls-files '*.go' | xargs grep -oE '[A-Za-z0-9_./-]+\.md\b' /dev/null | sort -u); do
    src=${ref%%:*}
    target=${ref#*:}
    if [ ! -e "$(dirname "$src")/$target" ] && [ ! -e "$target" ]; then
        echo "$src: broken path reference: $target" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "check-doc-links: broken references found" >&2
    exit 1
fi
echo "check-doc-links: all documentation references resolve"
