#!/usr/bin/env bash
# Kernel backend parity check: runs ssp_sparsify over the checked-in
# fixture graphs and one generated graph under every
# kernel backend compiled into the binary
# (SSP_KERNEL_BACKEND) crossed with SSP_THREADS 1 and 4, and compares the
# output edge lists byte for byte against the generic-backend
# single-thread reference. Any difference is a violation of the kernel
# layer's determinism contract (see src/la/kernels/kernel_config.hpp).
#
# Usage: kernel_parity.sh <ssp_sparsify> <fixtures_dir> <work_dir>

set -u

SPARSIFY="$1"
FIXTURES="$2"
WORK="$3"

mkdir -p "$WORK"
rm -f "$WORK"/*.mtx

# Ask the binary which backends it can actually run here ("+" = compiled
# and supported by this CPU); an unsupported pin must not be attempted.
BACKENDS=$("$SPARSIFY" --kernels | awk '$1 == "backend" && $3 == "+" {print $2}')
if [ -z "$BACKENDS" ]; then
  echo "FAIL: ssp_sparsify --kernels reported no usable backends" >&2
  exit 1
fi
echo "usable backends: $BACKENDS"

run() { # run <backend> <threads> <output-name> <args...>
  local backend="$1" threads="$2" out="$WORK/$3"
  shift 3
  if ! SSP_KERNEL_BACKEND="$backend" SSP_THREADS="$threads" \
       "$SPARSIFY" "$@" --out "$out" > "$WORK/log.txt" 2>&1; then
    echo "FAIL: [$backend t$threads] ssp_sparsify $* exited non-zero" >&2
    cat "$WORK/log.txt" >&2
    exit 1
  fi
}

checked=0
check() { # check <name> <sparsify args...>
  local name="$1"
  shift
  # Reference: scalar backend, one thread.
  run generic 1 "${name}_ref.mtx" "$@"
  for backend in $BACKENDS; do
    for threads in 1 4; do
      [ "$backend" = generic ] && [ "$threads" = 1 ] && continue
      out="${name}_${backend}_t${threads}.mtx"
      run "$backend" "$threads" "$out" "$@"
      if ! cmp -s "$WORK/${name}_ref.mtx" "$WORK/$out"; then
        echo "FAIL: $name output differs: $backend @ SSP_THREADS=$threads" >&2
        echo "      vs generic @ SSP_THREADS=1 — backends must be" >&2
        echo "      byte-identical (kernel determinism contract)." >&2
        exit 1
      fi
      checked=$((checked + 1))
    done
  done
}

check grid8 --in "$FIXTURES/grid8.mtx" --sigma2 8 --seed 42
check community16 --in "$FIXTURES/community16.mtx" --sigma2 8 --seed 42
# Large enough for the engine to overlap each round's spectral estimate
# with its embedding at SSP_THREADS=4, which the two fixtures never are.
check ba2000 --in gen:ba:2000:8:3 --sigma2 100 --seed 42

# A pin the binary cannot honour must fail loudly, never fall back.
if SSP_KERNEL_BACKEND=bogus "$SPARSIFY" --kernels > "$WORK/log.txt" 2>&1; then
  echo "FAIL: SSP_KERNEL_BACKEND=bogus did not error" >&2
  exit 1
fi

echo "kernel parity OK ($checked backend/thread legs byte-identical)"
