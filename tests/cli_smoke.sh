#!/usr/bin/env bash
# End-to-end smoke test of the `dmdkit` command: every subcommand, the CSV
# variants a fit must read alike (CRLF, byte-order mark, a pipe, numpy's
# %.18e text), the exit codes of refused inputs, that failed fits and
# simulations leave no file, and that refitting the same data gives a
# byte-identical model file.
#
# Run it in an empty scratch directory with `dmdkit` on PATH (the installed
# console script, or a shim that runs `python -m dmdkit.cli`); `python` must
# import numpy. It writes its files into the current directory and stops at
# the first failing command:
#
#     cd "$(mktemp -d)" && bash /path/to/dmdkit/tests/cli_smoke.sh
set -eo pipefail
# a numpy overflow or invalid value fails each dmdkit child, as pyproject.toml's
# filterwarnings fails it in the Tier-1 tests' own process
export PYTHONWARNINGS=error::RuntimeWarning

dmdkit simulate --system rotation --theta 0.5 --steps 5
dmdkit simulate --system rotation --theta 0.5 --steps 20 --out rot.csv
dmdkit fit --algo dmd --data rot.csv --out model.json > fit.csv
awk -F, 'NR > 1 { rows++; if (!($4 < 1e-10)) bad = 1 } END { exit bad || !rows }' fit.csv
grep '"schema_version": 7' model.json
sed 's/"schema_version": 7/"schema_version": 6/' model.json > model6.json
status=0; dmdkit spectrum model6.json || status=$?; test "$status" -eq 3
dmdkit spectrum model.json > spectrum.csv
# SVD DMD is EDMD over the identity dictionary: the same spectrum, and its
# model file holds the same three residuals
dmdkit fit --algo edmd --dict identity --data rot.csv --out identity.json
dmdkit spectrum identity.json | cmp - spectrum.csv
grep -q '"lifted"' model.json
grep -q '"observable"' model.json
sed 's/$/\r/' rot.csv > rot-crlf.csv
{ printf '\xef\xbb\xbf'; cat rot.csv; } > rot-bom.csv
for copy in crlf bom; do
  dmdkit fit --algo dmd --data rot-$copy.csv --out model-$copy.json
  dmdkit spectrum model-$copy.json | cmp - spectrum.csv
done
cat rot.csv | dmdkit fit --algo dmd --data /dev/stdin --out model-pipe.json
dmdkit spectrum model-pipe.json | cmp - spectrum.csv
# numpy.savetxt's default %.18e text of the same table, under the same header,
# loads into the same doubles, so the model file is byte-identical
python -c '
import numpy as np
with open("rot.csv") as handle:
    header = handle.readline().rstrip("\n")
table = np.loadtxt("rot.csv", delimiter=",", skiprows=1)
np.savetxt("rot-18e.csv", table, delimiter=",", header=header, comments="")'
grep -q '^1.000000000000000000e+00,8.775825618903727587e-01,' rot-18e.csv
dmdkit fit --algo dmd --data rot-18e.csv --out model-18e.json
cmp model.json model-18e.json
python -c '
import base64, json, numpy as np
with open("model.json") as handle:
    m = json.load(handle)["matrices"]["eigenvalues"]
with open("spectrum.csv") as handle:
    rows = handle.read().splitlines()[1:]
values = np.frombuffer(base64.b64decode(m["real"]), "<f8").reshape(m["rows"], m["cols"])
assert values.size == len(rows) > 0, (values.size, rows)'
echo "1,0" > ic.csv
dmdkit predict model.json ic.csv 5
dmdkit predict model.json ic.csv 3000 > forecast.csv
test "$(wc -l < forecast.csv)" -eq 3001
status=0; dmdkit predict model.json ic.csv 1000000000000000 || status=$?; test "$status" -eq 2
dmdkit fit --algo companion --data rot.csv --out companion.json
dmdkit predict companion.json ic.csv 5
# a companion file records the 1e-12 its fit cuts at, whatever --rtol says
dmdkit fit --algo companion --rtol 0.5 --data rot.csv --out companion-rtol.json
grep -q '"rtol": 1e-12,' companion.json
grep -q '"rtol": 1e-12,' companion-rtol.json
dmdkit simulate --system rotation --theta 0.5 --steps 1 --out rot1.csv
status=0; dmdkit fit --algo companion --data rot1.csv --data rot1.csv --out two.json || status=$?; test "$status" -eq 2
dmdkit simulate --system linear --a "0.9,0;0,0.5" --x0 1,1 --steps 10 --out a.csv
dmdkit simulate --system linear --a "0.7,0;0,0.2" --x0 1,1 --steps 10 --out b.csv
status=0; dmdkit fit --algo companion --data a.csv --data b.csv --out ab.json 2> ab.err || status=$?; test "$status" -eq 2
grep -- '--algo dmd' ab.err
test ! -e ab.json
# --augment-inputs refuses data files that split states from inputs differently
printf 't,x1,x2,u1\n0,1,1,0\n1,0.9,0.5,1\n2,0.81,0.25,0\n' > split-a.csv
printf 't,x1,u1,u2\n0,1,1,0\n1,0.9,0.5,1\n2,0.81,0.25,0\n' > split-b.csv
status=0; dmdkit fit --algo dmd --augment-inputs --data split-a.csv --data split-b.csv --out split.json || status=$?; test "$status" -eq 3
test ! -e split.json
status=0; dmdkit simulate --system forced-linear --a 0.9 --b 1 --x0 1 --steps 3 --input-scale nan || status=$?; test "$status" -eq 2
# an input hold far beyond the steps is one level; a step count past the
# address space exits 2 and writes nothing
dmdkit simulate --system forced-linear --a 0.9 --b 1 --x0 1 --steps 5 --input-hold 99999999999999999999 > held.csv
test "$(sed 1d held.csv | cut -d, -f3 | sort -u | wc -l)" -eq 1
for system in "linear" "forced-linear --b 1"; do
  status=0; dmdkit simulate --system $system --a 0.5 --x0 1 --steps 100000000000000000000 > huge.csv || status=$?; test "$status" -eq 2
  test ! -s huge.csv
done
dmdkit fit --algo edmd --dict poly:3 --data rot.csv --out edmd.json
dmdkit predict edmd.json ic.csv 5
dmdkit fit --algo edmd --dict wpoly:3 --data rot.csv --out wpoly.json
grep '"features": "wpoly:3"' wpoly.json
dmdkit predict wpoly.json ic.csv 5
dmdkit simulate --system linear --a 0.9 --x0 1 --steps 20 --out one.csv
status=0; dmdkit fit --algo edmd --dict wpoly:1100 --data one.csv --out wide.json || status=$?; test "$status" -eq 2
test ! -e wide.json
dmdkit fit --algo edmd --dict rbf:1:8 --data rot.csv --out rbf.json
dmdkit predict rbf.json ic.csv 5
dmdkit fit --algo kernel-edmd --kernel gaussian:1 --data rot.csv --out kernel.json
dmdkit predict kernel.json ic.csv 5
# a line break in a quoted value is escaped, so the error stays one line
status=0; dmdkit fit --algo kernel-edmd --kernel $'gauss\nian:1' --data rot.csv --out nl.json 2> nl.err || status=$?; test "$status" -eq 2
test "$(wc -l < nl.err)" -eq 1
grep -q '^error: .*gauss\\nian' nl.err
# a malformed command line is one error line too, with no usage text
status=0; dmdkit fit --algo bogus --data rot.csv --out bogus.json 2> bogus.err || status=$?; test "$status" -eq 2
test "$(wc -l < bogus.err)" -eq 1
grep -q "^error: argument --algo: invalid choice: 'bogus'" bogus.err
# The shift map (x1, x2) -> (x2, 0) has a singular eigenvector basis: its
# companion, SVD DMD and EDMD fits save a model flagged so, whose spectrum
# prints, and predict refuses it (exit 4)
printf 't,x1,x2\n0,0,1\n1,1,0\n2,0,0\n' > shift.csv
echo "0,1" > shift-ic.csv
dmdkit fit --algo dmd --data shift.csv --out shift-dmd.json
dmdkit fit --algo edmd --dict identity --data shift.csv --out shift-edmd.json
dmdkit fit --algo companion --data shift.csv --out shift-companion.json 2> shift-companion.err
grep 'note: eigenvector_basis_singular' shift-companion.err
dmdkit spectrum shift-companion.json
for model in shift-dmd shift-edmd shift-companion; do
  status=0; dmdkit predict $model.json shift-ic.csv 2 > $model.csv || status=$?; test "$status" -eq 4
  test ! -s $model.csv
done
# a flag no fit raises makes a model file malformed (exit 3), where loading it
# as unflagged would let predict forecast
sed 's/"eigenvector_basis_singular"/"x"/' shift-edmd.json > shift-x.json
grep -q '"x"' shift-x.json
status=0; dmdkit predict shift-x.json shift-ic.csv 2 > shift-x.csv || status=$?; test "$status" -eq 3
test ! -s shift-x.csv
# The quadratic system closes on {1, x1, x2, x1^2}, so a poly:2 EDMD fit of it
# has mu^2 = 0.81 among its eigenvalues; a rotation seen through x1 writes x1 only
dmdkit simulate --system quadratic --mu 0.9 --lam 0.5 --c 1 --x0=1,-0.4 --steps 30 --out quad.csv
dmdkit fit --algo edmd --dict poly:2 --data quad.csv --out quad.json
dmdkit spectrum quad.json > quad-spectrum.csv
awk -F, 'NR > 1 { re = $2 - 0.81; im = $3; if (re * re + im * im < 1e-18) found = 1 } END { exit !found }' quad-spectrum.csv
dmdkit simulate --system rotation --theta 0.5 --observe first --steps 5 --out first.csv
test "$(head -n 1 first.csv)" = "t,x1"
# refitting the same data gives a byte-identical model file, for every algorithm
for algo in "dmd" "companion" "edmd --dict poly:3" "kernel-edmd --kernel gaussian:1"; do
  dmdkit fit --algo $algo --data rot.csv --out refit-a.json > refit-a.csv
  dmdkit fit --algo $algo --data rot.csv --out refit-b.json > refit-b.csv
  cmp refit-a.json refit-b.json
done
# a flag of the wrong shape is a usage error (exit 2), and simulate writes nothing
status=0; dmdkit simulate --system linear --a "0.9,0;0,0.5" --x0 1,1,1 --steps 3 --out bad.csv || status=$?; test "$status" -eq 2
test ! -e bad.csv
# features that overflow: predict refuses an initial condition whose lift or
# kernel row overflows (exit 4), and a kernel fit of finite data near 1e200
# names the Gram matrix (exit 3), each with its one error line last and no
# warning; dmd and companion fit such data (exit 0), residuals scaled by 2^-e
echo "1e200,1e200" > huge-ic.csv
for algo in "edmd --dict poly:2" "kernel-edmd --kernel poly:2"; do
  dmdkit fit --algo $algo --data a.csv --out over.json
  status=0; dmdkit predict over.json huge-ic.csv 3 > over.csv 2> over.err || status=$?; test "$status" -eq 4
  test ! -s over.csv
  test "$(wc -l < over.err)" -eq 1
  grep -q "^error: eigenfunction values are not finite" over.err
done
printf 't,x1,x2\n0,1e200,1e200\n1,9e199,5e199\n2,8.1e199,2.5e199\n3,7.29e199,1.25e199\n' > huge.csv
for kernel in gaussian:1 poly:2; do
  status=0; dmdkit fit --algo kernel-edmd --kernel $kernel --data huge.csv --out huge-k.json 2> huge-k.err || status=$?; test "$status" -eq 3
  test "$(wc -l < huge-k.err)" -eq 2
  tail -n 1 huge-k.err | grep -q '^error: Gram matrix G contains non-finite entries'
  test ! -e huge-k.json
done
for algo in dmd companion; do
  dmdkit fit --algo $algo --data huge.csv --out huge-$algo.json > huge-$algo.csv
  awk -F, 'NR > 1 { rows++; if (!($4 < 1e-10)) bad = 1 } END { exit bad || !rows }' huge-$algo.csv
done
# a forecast that leaves the double range exits 4 with one error line naming
# its first non-finite step, and prints no rows
dmdkit simulate --system linear --a "1.5,0;0,0.5" --x0 1,1 --steps 10 --out grow.csv
dmdkit fit --algo dmd --data grow.csv --out grow.json
echo "1e300,1" > grow-ic.csv
status=0; dmdkit predict grow.json grow-ic.csv 50 > grow-forecast.csv 2> grow.err || status=$?; test "$status" -eq 4
test ! -s grow-forecast.csv
test "$(wc -l < grow.err)" -eq 1
grep -q '^error: forecast step 47 is not finite' grow.err
