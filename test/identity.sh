#!/bin/sh
# The identity battery: campaigns, the -j 1/-j 2 determinism probe, the
# plan-diff, const-opt and lint sweeps, the six targeted-bug sweeps and
# the Table 2 detection run, each written to a file under OUT with its
# exit status.  Timing fields are stripped, so two builds that behave
# the same give byte-identical trees: compare them with `diff -r`.
#
# usage: identity.sh SQLANCER EXPERIMENTS OUT   (what `make identity` runs)
set -eu

sq=$1
ex=$2
out=$3
# refuse to clear a directory this script did not write
if [ -e "$out" ] && [ -n "$(ls -A "$out")" ] &&
  [ ! -d "$out/campaign-sqlite-default" ]; then
  echo "identity: $out is not empty and not an identity output" >&2
  exit 2
fi
rm -rf "$out"
mkdir -p "$out"
cd "$out"

# run NAME CMD...: stdout to NAME.txt, then the exit status
run() {
  name=$1
  shift
  status=0
  "$@" >"$name.txt" || status=$?
  echo "exit=$status" >>"$name.txt"
}

# a campaign summary's lines 1 and 3 hold wall time, rates and phase times
strip_summary() {
  sed -i '1d;3d' "$1"
}

for d in sqlite mysql postgres; do
  for f in "" --all-bugs "--plan-diff --const-opt" \
    "--all-bugs --plan-diff --const-opt" --metamorphic \
    "--all-bugs --metamorphic" --guided "--all-bugs --guided"; do
    # campaign-sqlite-default, campaign-sqlite-all-bugs+guided, ...
    c=campaign-$d-$(echo "${f:-default}" | sed 's/^--//; s/ --/+/g')
    mkdir "$c"
    # $f is split into its flags on purpose
    # shellcheck disable=SC2086
    run "$c/summary" "$sq" campaign $f -j 1 -d "$d" -s 1 --databases 500 \
      --bundles "$c/bundles" --frontier "$c/frontier.json" \
      --trace "$c/trace.jsonl"
    strip_summary "$c/summary.txt"
    # heartbeats carry a wall-clock stamp and a rate; bundle traces
    # carry timestamps
    sed -i 's/"at":[^,]*,//; s/"rps":[^,]*,//' "$c/trace.jsonl"
    if [ -d "$c/bundles" ]; then
      find "$c/bundles" -name trace.json -exec rm {} +
    fi
  done
  for j in 1 2; do
    run "probe-$d-j$j" "$sq" campaign --all-bugs -d "$d" -s 1 \
      --databases 200 -j "$j" --frontier "probe-$d-j$j.frontier.json"
    strip_summary "probe-$d-j$j.txt"
  done
  # -j 1 and -j 2 agree but for the line naming the snapshot file
  for j in 1 2; do
    sed '/^frontier snapshot written to /d' "probe-$d-j$j.txt" \
      >"probe-$d-j$j.cmp"
  done
  if ! cmp -s "probe-$d-j1.cmp" "probe-$d-j2.cmp" ||
    ! cmp -s "probe-$d-j1.frontier.json" "probe-$d-j2.frontier.json"; then
    echo "identity: $d -j 1 and -j 2 differ" >&2
    exit 1
  fi
  rm "probe-$d-j1.cmp" "probe-$d-j2.cmp"
  run "plan-diff-$d" "$sq" plan-diff -d "$d" -s 1 --databases 1000
  run "const-opt-$d" "$sq" const-opt -d "$d" -s 1 --databases 1000
  run "lint-$d" "$sq" lint -d "$d" -s 1 --databases 5000
done

for b in Sq_skip_scan_distinct Sq_or_index_dedup Sq_desc_index_range; do
  run "plan-diff-$b" "$sq" plan-diff -d sqlite -s 1 --databases 300 -b "$b"
done
for b in Sq_fold_null_and Sq_fold_affinity_cmp Sq_fold_not_null_true; do
  run "const-opt-$b" "$sq" const-opt -d sqlite -s 1 --databases 300 -b "$b"
done
run table2 "$ex" full table2

echo "identity: $(find . -type f | wc -l) files under $out"
