#!/bin/sh
# Document size ratchet (make docs-size; a CI step): fails when a document
# outgrows its byte budget below, or when the last CHANGES.md entry — from
# its last "- PR " line to the end — exceeds 1.5 KB.
#
# Budgets only go down. A change that shrinks a document lowers its budget
# here to the new size; none raises one. A new CHANGES.md entry is paid for
# by folding older ones.
set -eu
cd "$(dirname "$0")/.."

fail=0
check() { # file budget
	size=$(wc -c <"$1")
	if [ "$size" -gt "$2" ]; then
		echo "$1: $size bytes, over its budget of $2"
		fail=1
	else
		echo "$1: $size bytes (budget $2)"
	fi
}
check DESIGN.md 69366
check EXPERIMENTS.md 94644
check CHANGES.md 32075
check README.md 21669

last=$(LC_ALL=C awk '/^- PR /{n=0} {n += length($0) + 1} END{print n}' CHANGES.md)
if [ "$last" -gt 1536 ]; then
	echo "CHANGES.md: last entry $last bytes, over 1536"
	fail=1
else
	echo "CHANGES.md: last entry $last bytes (limit 1536)"
fi
exit $fail
