#!/bin/sh
# CLI smoke run: generate a uniform-usp, a uniform-dwp and a paper-4.3
# instance, run `schedule --trace` with every scheduler in f64 and rational
# mode, run lpt-naive and lpt-fast in both modes on a few-speed uniform-usp
# instance (5 speeds, 12 machines on each, so one tournament leaf wins job
# after job), dwp-lpt in both modes on a uniform-dwp instance whose 60
# drones enter in 49 batches between LPT steps (seed 2), `schedule --algo
# opt --numeric f64` on a uniform-dwp instance whose LPT seed is already
# optimal (seed 733), every scheduler and `opt`
# in rational mode on hand-written instances with huge denominators, `opt`
# in both modes on Graham's m = 8 instance (8^17 raw assignments, solved
# within the search's work budget), `opt` in both modes on an instance
# whose search runs out of that budget (2 identical machines, 8,002 jobs),
# lpt-naive and lpt-fast in both modes on an instance whose finish times
# overflow f64 but not exact arithmetic, and `verify --count 50` on both
# uniform families, and with `--bound phi` on uniform-dwp (seeds 50 to 99)
# and `--bound 4/3` on equal-speed. The refused `opt` steps must exit 4,
# the f64 overflow steps 2 and every other step 0; each step's stdout, and
# a refused step's stderr and exit status, is kept in OUT_DIR, so two
# interpreters' runs can be compared byte for byte.
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

# like cli, but the step must exit with the status given after the name
refused() {
    name=$1
    expected=$2
    shift 2
    status=0
    python -m makespan.cli "$@" > "$out/$name" 2>&1 || status=$?
    echo "exit $status" >> "$out/$name"
    [ "$status" -eq "$expected" ]
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
cli drones.txt gen --family uniform-dwp --n 300 --m 60 --seed 2
for numeric in f64 rational; do
    cli "drones-dwp-lpt-$numeric.json" schedule --algo dwp-lpt --input "$out/drones.txt" \
        --numeric "$numeric" --trace
done
# hand-written rational instances: speeds p/q with large coprime numerators,
# lengths with denominators past 10^30, so the exact loops' scaled integers
# run to hundreds of bits
speeds="1000003/999983 999979/1000033 1000037/999961"
lengths="221852435492380785772761664783054439701897/10000000000000000000000000000000000000003
2663408482576573856441167130131514526346/100000000000000000000000000000000000039
4082810393019924532002659785355986376103/170141183460469231731687303715884105727
50971401403048664646679367424063/1000000000000000000000000000057
7819077290327495984326567944036363099059/147808829414345923316083210206383297603
549596420508533741973805246882888194622632/10000000000000000000000000000000000000003
2322591121219975195009253712997482055599/100000000000000000000000000000000000039"
{ echo "USP 3 7"; printf '%s\n' $speeds; echo "$lengths"; } > "$out/big-usp.txt"
{ echo "DWP 3 7"; printf '%s 60\n%s 30\n%s 25\n' $speeds; echo "$lengths"; } > "$out/big-dwp.txt"
{ echo "RESTRICTED 3 7"; printf '%s\n' $speeds
  echo "$lengths" | awk '{ k = NR % 3 + 1; line = $1 " " k
      for (i = 0; i < k; i++) line = line " " (NR + i) % 3; print line }'
} > "$out/big-restricted.txt"
for kind_algo in usp:lpt-naive usp:lpt-fast usp:opt dwp:dwp-lpt dwp:opt \
        restricted:lpt-restricted restricted:opt; do
    kind=${kind_algo%%:*}
    algo=${kind_algo#*:}
    cli "big-$kind-$algo.json" schedule --algo "$algo" --input "$out/big-$kind.txt" \
        --numeric rational --trace
done
cli dwp733.txt gen --family uniform-dwp --n 7 --m 2 --seed 733
cli dwp733-opt-f64.json schedule --algo opt --input "$out/dwp733.txt" --numeric f64
# Graham's tight family at m = 8: two jobs each of lengths 15 down to 9 and
# three of length 8 on 8 identical machines, LPT 31 against the optimum 24
{ echo "USP 8 17"; printf '1\n%.0s' 1 2 3 4 5 6 7 8
  for l in 15 14 13 12 11 10 9; do printf '%s\n%s\n' $l $l; done
  printf '8\n8\n8\n'
} > "$out/graham8.txt"
for numeric in f64 rational; do
    cli "graham8-opt-$numeric.json" schedule --algo opt --input "$out/graham8.txt" \
        --numeric "$numeric"
done
# 2 identical machines; lengths 2k - 3, then k twos, then one 3 (k = 8000):
# the optimum 2k is found at once, but each of the vector pass's k tries
# builds O(n) lists, so n units per try spend the budget
{ echo "USP 2 8002"; printf '1\n1\n15997\n'; yes 2 | head -n 8000; echo 3; } > "$out/wide.txt"
for numeric in f64 rational; do
    refused "wide-opt-$numeric.txt" 4 schedule --algo opt --input "$out/wide.txt" \
        --numeric "$numeric"
done
# every job on the slowest machine finishes at 3e300 / 1e-300: past f64's
# range (a usage error, exit 2), but exact in rational mode
{ echo "USP 2 3"; printf '1e-300\n2e-300\n1e300\n1e300\n1e300\n'; } > "$out/overflow.txt"
for algo in lpt-naive lpt-fast; do
    refused "overflow-$algo-f64.txt" 2 schedule --algo "$algo" --input "$out/overflow.txt" \
        --numeric f64
    cli "overflow-$algo-rational.json" schedule --algo "$algo" --input "$out/overflow.txt" \
        --numeric rational
done
for family in uniform-usp uniform-dwp; do
    cli "verify-$family.json" verify --family "$family" --count 50
done
# the exact phi test and the histogram bins decide on integers; --bound
# defaults to phi, so this step checks the next block of 50 seeds
cli verify-uniform-dwp-phi.json verify --family uniform-dwp --count 50 --bound phi --seed 50
cli verify-equal-speed-4-3.json verify --family equal-speed --count 50 --bound 4/3
echo "smoke ok: $(ls "$out" | wc -l) outputs in $out"
