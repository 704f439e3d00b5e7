#!/bin/sh
# CLI smoke run: generate a uniform-usp, a uniform-dwp and a paper-4.3
# instance, run `schedule --trace` with every scheduler in f64 and rational
# mode, run lpt-naive and lpt-fast in both modes on a few-speed uniform-usp
# instance (5 speeds, 12 machines on each, so one tournament leaf wins job
# after job), `schedule --algo opt --numeric f64` on a uniform-dwp instance
# whose greedy seed is already optimal (seed 733), and `verify --count 50`
# on both uniform families. Every step must exit 0; each step's stdout is
# kept in OUT_DIR, so two interpreters' runs can be compared byte for byte.
#
#   sh scripts/versions_smoke.sh OUT_DIR
set -eu
out=${1:?usage: versions_smoke.sh OUT_DIR}
mkdir -p "$out"

cli() {
    name=$1
    shift
    python -m makespan.cli "$@" > "$out/$name"
}

cli usp.txt gen --family uniform-usp --n 8 --m 3 --seed 1
cli dwp.txt gen --family uniform-dwp --n 8 --m 3 --seed 1
cli restricted.txt gen --family paper-4.3
for numeric in f64 rational; do
    for algo in lpt-naive lpt-fast opt; do
        cli "usp-$algo-$numeric.json" schedule --algo "$algo" --input "$out/usp.txt" \
            --numeric "$numeric" --trace
    done
    for algo in dwp-lpt opt; do
        cli "dwp-$algo-$numeric.json" schedule --algo "$algo" --input "$out/dwp.txt" \
            --numeric "$numeric" --trace
    done
    cli "restricted-lpt-restricted-$numeric.json" schedule --algo lpt-restricted \
        --input "$out/restricted.txt" --numeric "$numeric" --trace
done
cli deep.txt gen --family uniform-usp --n 300 --m 60 --speed-range 1:2 --grid 4
for numeric in f64 rational; do
    for algo in lpt-naive lpt-fast; do
        cli "deep-$algo-$numeric.json" schedule --algo "$algo" --input "$out/deep.txt" \
            --numeric "$numeric" --trace
    done
done
cli dwp733.txt gen --family uniform-dwp --n 7 --m 2 --seed 733
cli dwp733-opt-f64.json schedule --algo opt --input "$out/dwp733.txt" --numeric f64
for family in uniform-usp uniform-dwp; do
    cli "verify-$family.json" verify --family "$family" --count 50
done
echo "smoke ok: $(ls "$out" | wc -l) outputs in $out"
