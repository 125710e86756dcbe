#!/usr/bin/env bash
# Build wdbench from source in the checkout that holds this script, then
# run it from the checkout's root with every argument passed through:
#   bash bench/wdbench/run.sh --workload tcp-k1000-dc --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display quiet ./bench/wdbench/wdbench.exe
exec _build/default/bench/wdbench/wdbench.exe "$@"
