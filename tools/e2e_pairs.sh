#!/bin/sh
# Judge the working tree against a base commit with the end-to-end
# serving benchmark (bench/e2e): build both, run PAIRS alternating pairs
# of `run --seconds 12`, one seed per pair, then `compare` the two sides.
#
#   tools/e2e_pairs.sh [BASE] [PAIRS] [FIRST_SEED]
#
# BASE (default HEAD) is any commit; PAIRS defaults to 10. Pair i runs
# seed FIRST_SEED + i (default FIRST_SEED 0) on both sides, the base
# first on odd pairs and the working tree first on even ones, so drift
# in the machine's speed falls on both sides alike. Each side reads its
# own BENCHMARK.json. The results stay in the directory printed at the
# start (made with mktemp -d, so TMPDIR chooses where): base/<seed>/ and
# change/<seed>/. The base's source tree is removed on exit. Exits with
# the status of `compare`: 1 if any metric got worse.
set -eu

base=${1:-HEAD}
pairs=${2:-10}
first_seed=${3:-0}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/e2e-pairs.XXXXXX")
trap 'rm -rf "$work/base-src"' EXIT
echo "e2e pairs: $base against the working tree, results in $work"

mkdir "$work/base-src"
git -C "$root" archive --format=tar "$base" | tar -x -C "$work/base-src"
dune build --root "$work/base-src" bench/e2e/main.exe
dune build --root "$root" bench/e2e/main.exe
mkdir "$work/base" "$work/change"
cp "$work/base-src/_build/default/bench/e2e/main.exe" "$work/base/main.exe"
cp "$work/base-src/BENCHMARK.json" "$work/base/BENCHMARK.json"
cp "$root/_build/default/bench/e2e/main.exe" "$work/change/main.exe"
cp "$root/BENCHMARK.json" "$work/change/BENCHMARK.json"

run_side() {
  echo "== $1, seed $2"
  (cd "$work/$1" && ./main.exe run --seed "$2" --seconds 12 --out .)
}

i=1
while [ "$i" -le "$pairs" ]; do
  seed=$((first_seed + i))
  if [ $((i % 2)) -eq 1 ]; then
    run_side base "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side base "$seed"
  fi
  i=$((i + 1))
done

cd "$work/change" && ./main.exe compare ../base .
