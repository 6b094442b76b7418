#!/usr/bin/env bash
# Golden determinism check: runs ssp_sparsify over the checked-in fixture
# graphs through every execution path — the whole-graph engine, the scale
# layer (partitioned under each cut policy, and out-of-core under a memory
# budget), and the dynamic update layer — and compares the output edge
# lists byte for byte (sha256) against tests/fixtures/golden_hashes.txt.
# Every path is pinned to fixed options and seeds, so any hash drift is a
# cross-PR determinism regression.
#
# Usage: golden_determinism.sh <ssp_sparsify> <fixtures_dir> <work_dir>
#
# Regenerate hashes after an *intentional* output change:
#   tests/golden_determinism.sh build/ssp_sparsify tests/fixtures /tmp/gw --update

set -u

UPDATE="${4:-}"
mkdir -p "$3"
# Absolute paths: the checks below run from inside the work directory.
SPARSIFY="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
FIXTURES="$(cd "$2" && pwd)"
WORK="$(cd "$3" && pwd)"
rm -f "$WORK"/*.mtx

run() { # run <output-name> <args...>
  local out="$WORK/$1"
  shift
  if ! "$SPARSIFY" "$@" --out "$out" > "$WORK/log.txt" 2>&1; then
    echo "FAIL: ssp_sparsify $* exited non-zero" >&2
    cat "$WORK/log.txt" >&2
    exit 1
  fi
}

# grid8: 8x8 weighted lattice. community16: four planted blocks.
for fixture in grid8 community16; do
  in="$FIXTURES/$fixture.mtx"
  run "${fixture}_plain.mtx"     --in "$in" --sigma2 8 --seed 42
  run "${fixture}_part4.mtx"     --in "$in" --sigma2 8 --seed 42 --partitions 4
  run "${fixture}_part4_keepall.mtx" --in "$in" --sigma2 8 --seed 42 \
      --partitions 4 --cut-policy keep-all
  run "${fixture}_dynamic.mtx"   --in "$in" --sigma2 8 --seed 42 \
      --update-file "$FIXTURES/$fixture.journal"
done
# ba2000: Barabasi-Albert, 2000 vertices, m = 8. Its L_G (33,928 nonzeros)
# is large enough for the engine to overlap each round's spectral estimate
# with its embedding when more than one thread runs, and its factors stay
# unsplit; the fixtures above are too small for that.
run ba2000_plain.mtx --in gen:ba:2000:8:3 --sigma2 100 --seed 42
# Out-of-core: a 1 MiB budget splits the 120x120 lattice into four leaves.
run grid120_outofcore.mtx --in gen:grid2d:120x120:7 --memory-budget-mb 1 \
    --sigma2 8 --seed 42

cd "$WORK" || exit 1
sha256sum ./*.mtx > observed_hashes.txt

if [ "$UPDATE" = "--update" ]; then
  cp observed_hashes.txt "$FIXTURES/golden_hashes.txt"
  echo "updated $FIXTURES/golden_hashes.txt"
  exit 0
fi

if ! diff -u "$FIXTURES/golden_hashes.txt" observed_hashes.txt; then
  echo "FAIL: sparsifier output drifted from the golden fixtures." >&2
  echo "If the change is intentional, regenerate with --update." >&2
  exit 1
fi
# Boolean flags count by value: `--flag=false` keeps the plain
# whole-graph route and its bytes (outputs kept out of the hashed set).
mkdir -p flags
for flag in kernels rescale estimate-quality warm-refine; do
  if ! "$SPARSIFY" --in "$FIXTURES/grid8.mtx" --sigma2 8 --seed 42 \
      "--$flag=false" --out "flags/$flag.mtx" > flags/log.txt 2>&1; then
    echo "FAIL: --$flag=false exited non-zero" >&2
    cat flags/log.txt >&2
    exit 1
  fi
  if ! grep -q "^sigma2: target" flags/log.txt ||
      ! cmp -s grid8_plain.mtx "flags/$flag.mtx"; then
    echo "FAIL: --$flag=false left the plain whole-graph route" >&2
    cat flags/log.txt >&2
    exit 1
  fi
done
# The scale route's worst estimate is the max over the --progress block and
# cut lines; here the cut pass is the worst piece (exit 2 = not reached).
"$SPARSIFY" --in gen:ba:2000:8:3 --sigma2 10 --seed 42 --partitions 4 \
    --cut-policy filter --progress > flags/worst.txt 2>&1
rc=$?
if { [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; } || ! awk '
    /^  (block|cut) / { for (i = 1; i < NF; ++i)
                          if ($i == "sigma2" && $(i + 1) > max) max = $(i + 1) }
    /worst estimate/ { d = $7 - max }
    END { exit !(max > 0 && d > -0.006 && d < 0.006) }' flags/worst.txt; then
  echo "FAIL: the worst estimate is not the max over blocks and the cut" >&2
  cat flags/worst.txt >&2
  exit 1
fi
echo "golden determinism OK ($(wc -l < observed_hashes.txt) outputs)"
