#!/bin/sh
# Line and branch coverage of the compiled core under the Tier-1 suite.
#
#   sh tools/core_coverage.sh [WORK_DIR]
#
# Copies the checkout's tracked files, as they are in the working tree
# (new files once added), into WORK_DIR (default: a new temporary
# directory), builds src/otsske/backend/_core.c there with -O0 --coverage,
# runs the Tier-1 suite on the native backend, and prints gcov's summary
# for _core.c: "Lines executed" is line coverage, "Taken at least once" is
# branch coverage.  The checkout's files are not touched.  Takes a few
# minutes.
set -eu
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
tree=$(cd "$repo" && git stash create)
(cd "$repo" && git archive "${tree:-HEAD}") | tar -xf - -C "$work"
cd "$work"
include=$(python3 -c 'import sysconfig; print(sysconfig.get_paths()["include"])')
suffix=$(python3 -c 'import sysconfig; print(sysconfig.get_config_var("EXT_SUFFIX"))')
so=src/otsske/backend/_core$suffix
# The suite first runs setup.py build_ext --inplace (tests/conftest.py),
# which compiles only when setuptools' own copy under build/ is older than
# the source, and then copies that one in place.  So make that copy, and
# put the coverage build over it and over the one in place.
python3 setup.py -q build_ext --inplace >/dev/null 2>&1
mkdir -p gcov
cc -c -O0 --coverage -fPIC -I "$include" src/otsske/backend/_core.c -o gcov/_core.o
cc -shared --coverage gcov/_core.o -o "$so"
for copy in build/lib*/otsske/backend/_core"$suffix"; do cp "$so" "$copy"; done
OTSSKE_BACKEND=native PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider || echo "Tier-1 failed; coverage of the run so far:"
gcov -b -n -o gcov src/otsske/backend/_core.c | awk '/^File /{p = /_core\.c/} p'
