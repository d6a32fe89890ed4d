#!/bin/sh
# Alternating parent/change pairs of one perfbench workload.
#
#   sh benchruns/pr27/pairs.sh PARENT_TREE CHANGE_TREE SET_DIR WORKLOAD SEED N [TRACE [FIRST]]
#
# Each tree is an unpacked checkout (git archive REV | tar -x).  Pair k runs
# the parent first when k is odd, the change first when it is even; each run
# is `python3 perfbench/run.py --seconds 20` from its own tree, and its record
# is kept gzipped as SET_DIR/{parent,change}_k.json.gz.  Pairs FIRST..N run
# (FIRST defaults to 1), so a set can be extended.
set -e
parent=$1 change=$2 set_dir=$3 workload=$4 seed=$5 n=$6 trace=${7:-0}
first=${8:-1}
mkdir -p "$set_dir"
run() {  # run SIDE TREE K
    (cd "$2" && PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds 20 --trace "$trace" \
        > /dev/null)
    gzip -c "$2/perfbench/out/BENCH_${workload}_s${seed}_t${trace}.json" \
        > "$set_dir/$1_$3.json.gz"
}
k=$first
while [ "$k" -le "$n" ]; do
    if [ $((k % 2)) -eq 1 ]; then
        run parent "$parent" "$k"; run change "$change" "$k"
    else
        run change "$change" "$k"; run parent "$parent" "$k"
    fi
    k=$((k + 1))
done
